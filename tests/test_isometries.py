"""Rotation groups, their generators and Killing fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotsurf import (Rotation, Vector4, apply_matrix, generator_matrix, inner,
                     rotation_matrix)
from rotsurf.ambient import METRIC_DIAGONAL
from rotsurf.isometries import _plane_map

component = st.floats(-10, 10, allow_nan=False)
vec = st.builds(Vector4, component, component, component, component)


def lie_derivative(matrix):
    """G A + (G A)^T, G = diag(-1, -1, 1, 1): the Lie derivative of the
    metric along the linear field x -> A x, zero exactly on Killing
    fields."""
    ga = np.diag(METRIC_DIAGONAL) @ np.array(matrix)
    return ga + ga.T


def test_apply_matrix_rejects_bad_input():
    v = Vector4(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ValueError):
        apply_matrix(np.zeros((3, 3)), v)
    with pytest.raises(ValueError):
        apply_matrix(np.full((4, 4), np.nan), v)
    with pytest.raises(ValueError):
        apply_matrix([[0.0] * 4, [0.0] * 4, [0.0] * 3, [0.0] * 4], v)
    with pytest.raises(ValueError, match="4x4"):
        apply_matrix([[0.0] * 5 for _ in range(4)], v)
    with pytest.raises(ValueError, match="4x4"):
        apply_matrix(np.zeros(16), v)
    with pytest.raises(ValueError, match="finite"):
        apply_matrix([[0.0] * 4, [0.0, math.inf, 0.0, 0.0],
                      [0.0] * 4, [0.0] * 4], v)


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
    # each generator, and a combination of all six, exactly
    combination = sum(k * np.array(generator_matrix(rotation))
                      for k, rotation in zip((1.5, -2.0, 3.0, 0.25, -7.0, 1e-3),
                                             Rotation))
    for matrix in [*map(generator_matrix, Rotation), combination]:
        assert np.array_equal(lie_derivative(matrix), np.zeros((4, 4)))
    # adding the identity is detected: its derivative is 2 G
    perturbed = lie_derivative(combination + np.eye(4))
    assert np.array_equal(perturbed, np.diag([-2.0, -2.0, 2.0, 2.0]))


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
            exact = rotation.derivative(rotation.block(angle))
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


signed = st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.just(-0.0))


@settings(max_examples=300)
@given(st.sampled_from(list(Rotation)), st.floats(-3, 3, allow_nan=False),
       st.lists(signed, min_size=4, max_size=4))
def test_plane_map_is_the_matrix_product_bit_for_bit(rotation, angle, x):
    # the rotation and its generator, as ``rotsurf isometry`` applies them;
    # repr tells -0.0 from 0.0
    for block, diag, matrix in (
            (rotation.block(angle), 1.0, rotation_matrix(rotation, angle)),
            (rotation.derivative(rotation.block(0.0)), 0.0,
             generator_matrix(rotation))):
        got = _plane_map(rotation, block, diag)(x)
        assert repr(got) == repr(list(apply_matrix(matrix,
                                                   Vector4(*x)).components()))
