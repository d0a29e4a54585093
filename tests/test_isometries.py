"""Rotation groups, Killing fields, Lie-derivative residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotsurf import (KillingParams, Rotation, Vector4, apply_matrix,
                     generator_matrix, inner, killing_matrix, lie_residual,
                     rotation_matrix)

coefficient = st.floats(-5, 5, allow_nan=False)
component = st.floats(-10, 10, allow_nan=False)
vec = st.builds(Vector4, component, component, component, component)
params_strategy = st.builds(KillingParams, coefficient, coefficient,
                            coefficient, coefficient, coefficient, coefficient)


def killing_field(params, p):
    """The six-parameter Killing field at ``p``."""
    return apply_matrix(killing_matrix(params), p)


def test_killing_field_first_generator_term():
    # the a-term swaps slots 1 and 4
    result = killing_field(KillingParams(a=1), Vector4(1, 2, 3, 4))
    assert result.components() == (4.0, 0.0, 0.0, 1.0)


def test_killing_field_zero_params():
    result = killing_field(KillingParams(), Vector4(3, -1, 2, 5))
    assert result.components() == (0.0, 0.0, 0.0, 0.0)


def test_killing_field_spin_term():
    # the f-term rotates slots 1 and 2
    result = killing_field(KillingParams(f=1), Vector4(1, 2, 3, 4))
    assert result.components() == (-2.0, 1.0, 0.0, 0.0)


@given(params_strategy, vec)
def test_killing_matrix_matches_field(params, p):
    # killing_matrix applied to p against the component formula written out
    x1, x2, x3, x4 = p.components()
    a, b, c, d, e, f = (params.a, params.b, params.c, params.d, params.e,
                        params.f)
    expected = (a * x4 + c * x3 - f * x2, b * x3 + d * x4 + f * x1,
                b * x2 + c * x1 - e * x4, a * x1 + d * x2 + e * x3)
    value = killing_field(params, p)
    assert value.components() == pytest.approx(expected, abs=1e-12)


@given(params_strategy)
def test_killing_fields_have_zero_lie_residual(params):
    residual = lie_residual(killing_matrix(params))
    assert np.max(np.abs(residual)) <= 1e-14


def test_lie_residual_identity_is_twice_metric():
    residual = lie_residual(np.eye(4))
    assert np.array_equal(residual, np.diag([-2.0, -2.0, 2.0, 2.0]))


def test_lie_residual_zero_field():
    assert np.array_equal(lie_residual(np.zeros((4, 4))), np.zeros((4, 4)))


def test_lie_residual_rejects_bad_input():
    with pytest.raises(ValueError):
        lie_residual(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        lie_residual(np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        lie_residual([[0.0] * 4, [0.0] * 4, [0.0] * 3, [0.0] * 4])
    with pytest.raises(ValueError, match="4x4"):
        lie_residual([[0.0] * 5 for _ in range(4)])
    with pytest.raises(ValueError, match="4x4"):
        lie_residual(np.zeros(16))
    with pytest.raises(ValueError, match="finite"):
        lie_residual([[0.0] * 4, [0.0, math.inf, 0.0, 0.0],
                      [0.0] * 4, [0.0] * 4])


def test_rotation_at_zero_is_identity():
    for rotation in Rotation:
        assert np.array_equal(rotation_matrix(rotation, 0.0), np.eye(4))


def test_spin12_quarter_turn():
    moved = apply_matrix(rotation_matrix(Rotation.SPIN_12, math.pi / 2),
                         Vector4(1, 0, 0, 0))
    assert moved.components() == pytest.approx((0.0, -1.0, 0.0, 0.0),
                                               abs=1e-12)


def test_boost13_orbit_is_timelike_unit():
    for s in (-2.0, -0.3, 0.0, 1.1, 2.7):
        moved = apply_matrix(rotation_matrix(Rotation.BOOST_13, s),
                             Vector4(1, 0, 0, 0))
        assert moved.components() == pytest.approx(
            (math.cosh(s), 0.0, math.sinh(s), 0.0), abs=1e-12)
        assert inner(moved, moved) == pytest.approx(-1.0, abs=1e-12)


@settings(max_examples=150)
@given(st.sampled_from(list(Rotation)), st.floats(-3, 3, allow_nan=False),
       st.floats(-3, 3, allow_nan=False))
def test_group_law(rotation, s, u):
    combined = (np.array(rotation_matrix(rotation, s))
                @ np.array(rotation_matrix(rotation, u)))
    direct = np.array(rotation_matrix(rotation, s + u))
    assert np.max(np.abs(combined - direct)) <= 1e-12


@settings(max_examples=150)
@given(st.sampled_from(list(Rotation)), st.floats(-1.5, 1.5, allow_nan=False),
       vec, vec)
def test_rotations_preserve_inner_product(rotation, s, v, w):
    matrix = rotation_matrix(rotation, s)
    before = inner(v, w)
    after = inner(apply_matrix(matrix, v), apply_matrix(matrix, w))
    assert abs(after - before) <= 1e-12


def test_generator_matrices_are_killing():
    for rotation in Rotation:
        residual = lie_residual(generator_matrix(rotation))
        assert np.max(np.abs(residual)) == 0.0


def test_generator_matrix_is_derivative_at_zero():
    h = 1e-6
    for rotation in Rotation:
        numeric = (np.array(rotation_matrix(rotation, h))
                   - np.array(rotation_matrix(rotation, -h))) / (2.0 * h)
        exact = np.array(generator_matrix(rotation))
        assert np.max(np.abs(numeric - exact)) <= 1e-9


def _closed_form_deriv(rotation, angle):
    if rotation.hyperbolic:
        ch, sh = math.cosh(angle), math.sinh(angle)
        return sh, ch, ch, sh
    co, si = math.cos(angle), math.sin(angle)
    return -si, co, -co, -si


def test_rotation_blocks():
    h = 1e-6
    for rotation in Rotation:
        assert rotation.block(0.0) == (1.0, 0.0, 0.0, 1.0)
        for angle in (-1.3, 0.0, -0.0, 0.4, 2.1):
            exact = rotation.block_deriv(angle)
            # R' = J R gives the closed form bit for bit, signed zeros too
            assert list(map(float.hex, exact)) == list(
                map(float.hex, _closed_form_deriv(rotation, angle)))
            plus, minus = rotation.block(angle + h), rotation.block(angle - h)
            numeric = [(p - m) / (2.0 * h) for p, m in zip(plus, minus)]
            assert max(abs(n - e) for n, e in zip(numeric, exact)) <= 1e-8


def test_rotation_labels_round_trip():
    for rotation in Rotation:
        assert Rotation.from_label(rotation.label) is rotation
    with pytest.raises(ValueError):
        Rotation.from_label("boost99")
