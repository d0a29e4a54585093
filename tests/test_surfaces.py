"""Immersions, diagonal metrics, tangent frames, Lagrangian machinery."""

import ast
import builtins
import itertools
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_expressions import _lowering_func, _lowering_leaf, _outcome, _tree

from rotsurf import (DomainError, GeodesicState, NotTimelikeError, Vector4,
                     apply_matrix, expressions, inner, integrate, make_family,
                     rotation_matrix)
from rotsurf.geodesics import invariant_rows

H14A = make_family("hyperbolic14", "A", "t", "1", 0.05, 10.0)
H14B = make_family("hyperbolic14", "B", "t", "2", 0.1, 5.0)
H23A = make_family("hyperbolic23", "A", "2 + t/sqrt(2)", "1 + t/sqrt(2)", -1.0, 6.0)
H23B = make_family("hyperbolic23", "B", "2 + t/2", "1 + t", -0.8, 4.0)
E56A = make_family("elliptic56", "A", "t+2", "1", -1.5, 8.0)
E56B = make_family("elliptic56", "B", "1", "t+3", -2.0, 5.0)

ALL_FAMILIES = [H14A, H14B, H23A, H23B, E56A, E56B]

angle = st.floats(-1.5, 1.5, allow_nan=False)
unit = st.floats(0.02, 0.98)


def domain_point(fam, fraction):
    lo, hi = fam.domain
    return lo + (hi - lo) * fraction


def test_metric_coefficients_boost_13_24():
    coeffs = H14A.metric_coefficients(2.0)
    assert (coeffs.E, coeffs.G, coeffs.N) == (4.0, -1.0, -1.0)


def test_metric_coefficients_boost_14_23():
    coeffs = H23A.metric_coefficients(0.0)
    assert coeffs.E == pytest.approx(4.0, abs=1e-14)
    assert coeffs.G == pytest.approx(1.0, abs=1e-14)
    assert coeffs.N == pytest.approx(-1.0, abs=1e-14)


def test_metric_coefficients_spin():
    coeffs = E56A.metric_coefficients(0.0)
    assert (coeffs.E, coeffs.G, coeffs.N) == (-4.0, 1.0, -1.0)


def test_immerse_boost_13_24():
    point = H14A.immerse(0.0, 0.0, 2.0)
    assert point.components() == (2.0, 0.0, 0.0, 1.0)


def test_immerse_boost_14_23_at_origin_angles():
    fam = make_family("hyperbolic23", "A", "2", "1", -5.0, 5.0)
    point = fam.immerse(0.0, 0.0, 0.5)
    assert point.components() == (2.0, 1.0, 0.0, 0.0)


def test_immerse_spin_quarter_turn():
    point = E56A.immerse(math.pi / 2, 0.0, 0.0)
    assert point.components() == pytest.approx((2.0, 0.0, 0.0, 1.0),
                                               abs=1e-15)


def test_tangent_frame_example():
    du, dv, dt = H14A.tangent_frame(0.0, 0.0, 2.0)
    assert du.components() == (0.0, 0.0, 2.0, 0.0)
    assert inner(du, du) == 4.0
    assert inner(du, dv) == 0.0
    assert dt.components() == (1.0, 0.0, 0.0, 0.0)
    assert inner(dt, dt) == -1.0


@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_columns_are_block_slices(fam):
    # the block's and its derivative's columns at the profile slots, bit
    # for bit, signed zeros included
    spec = fam.spec
    rot_u, rot_v = spec.rot_u, spec.rot_v
    for u, v in ((0.0, -0.0), (-0.0, 0.0), (0.4, -1.3), (2.1, 40.0)):
        expected = (rot_u.block(u)[spec.fa_pos::2],
                    rot_u.derivative(rot_u.block(u))[spec.fa_pos::2],
                    rot_v.block(v)[spec.fb_pos::2],
                    rot_v.derivative(rot_v.block(v))[spec.fb_pos::2])
        assert [list(map(float.hex, c)) for c in spec.columns(u, v)] == [
            list(map(float.hex, c)) for c in expected]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ALL_FAMILIES), angle, angle, unit)
def test_frame_reproduces_metric(fam, u, v, fraction):
    t = domain_point(fam, fraction)
    frame = fam.tangent_frame(u, v, t)
    coeffs = fam.metric_coefficients(t)
    expected = (coeffs.E, coeffs.G, coeffs.N)
    for vector, value in zip(frame, expected):
        assert abs(inner(vector, vector) - value) <= 1e-10 * (1.0 + abs(value))
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(inner(frame[i], frame[j])) <= 1e-12


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ALL_FAMILIES), angle, angle, angle, unit)
def test_rotation_invariance(fam, u, v, shift, fraction):
    t = domain_point(fam, fraction)
    shifted_u = fam.immerse(u + shift, v, t)
    rotated_u = apply_matrix(
        rotation_matrix(fam.spec.rot_u, shift), fam.immerse(u, v, t))
    assert shifted_u.components() == pytest.approx(
        rotated_u.components(), abs=1e-12)
    shifted_v = fam.immerse(u, v + shift, t)
    rotated_v = apply_matrix(
        rotation_matrix(fam.spec.rot_v, shift), fam.immerse(u, v, t))
    assert shifted_v.components() == pytest.approx(
        rotated_v.components(), abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(angle, angle, st.floats(0.05, 1.8, allow_nan=False))
def test_unit_quadric_embedding(u, v, t):
    # profiles (cosh t, sinh t) satisfy -fa^2 + fb^2 = -1, so every point
    # lies on the radius-1 pseudo-hyperbolic quadric
    fam = make_family("hyperbolic14", "A", "cosh(t)", "sinh(t)", -2.0, 2.0)
    point = fam.immerse(u, v, t)
    assert abs(inner(point, point) + 1.0) <= 1e-12


def test_degeneracy_flags():
    fam = make_family("hyperbolic14", "A", "t", "1", -1.0, 1.0)
    assert fam.metric_coefficients(0.0).degenerate        # fa vanishes
    assert not fam.metric_coefficients(0.5).degenerate
    flat_n = make_family("hyperbolic14", "A", "t", "t", 0.1, 1.0)
    assert flat_n.metric_coefficients(0.5).degenerate     # N vanishes
    zero_g = make_family("hyperbolic14", "A", "2", "t", -1.0, 1.0)
    assert zero_g.metric_coefficients(0.0).degenerate     # fb vanishes


def test_metric_derivatives_match_finite_differences():
    for fam in ALL_FAMILIES:
        lo, hi = fam.domain
        for fraction in (0.2, 0.5, 0.8):
            t = lo + (hi - lo) * fraction
            h = 1e-6
            bundle = fam.metric_bundle(t)
            for index in range(3):
                plus = fam.metric_coefficients(t + h)
                minus = fam.metric_coefficients(t - h)
                numeric = ((plus.E, plus.G, plus.N)[index]
                           - (minus.E, minus.G, minus.N)[index]) / (2.0 * h)
                assert bundle[3 + index] == pytest.approx(
                    numeric, abs=1e-6 * (1.0 + abs(numeric)))


def test_lagrangian_examples():
    meridian = GeodesicState(0, 0, 1.0, 0, 0, 1.0)
    assert H14A.lagrangian(meridian) == -1.0
    state = GeodesicState(0, 0, 1.0, 0.3, 0.1, math.sqrt(1.08))
    assert H14A.lagrangian(state) == pytest.approx(-1.0, abs=1e-12)
    null_state = GeodesicState(0, 0, 1.0, 1.0, 0.0, 1.0)
    assert H14A.lagrangian(null_state) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ALL_FAMILIES), angle, angle, unit,
       st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False),
       st.floats(-2, 2, allow_nan=False))
def test_lagrangian_is_pushed_forward_norm(fam, u, v, fraction, du, dv, dt):
    t = domain_point(fam, fraction)
    state = GeodesicState(u, v, t, du, dv, dt)
    f_u, f_v, f_t = (x.components() for x in fam.tangent_frame(u, v, t))
    velocity = Vector4(*(a * du + b * dv + c * dt
                         for a, b, c in zip(f_u, f_v, f_t)))
    assert fam.lagrangian(state) == pytest.approx(
        inner(velocity, velocity), abs=1e-9)


def test_normalize_timelike_scales_quadratically():
    state = GeodesicState(0, 0, 1.0, 0, 0, 2.0)       # L = -4 on H14A
    assert H14A.lagrangian(state) == -4.0
    normalized = H14A.normalize_timelike(state)
    assert normalized.dt == 1.0
    assert H14A.lagrangian(normalized) == pytest.approx(-1.0, abs=1e-14)


def test_normalize_timelike_identity_on_unit_states():
    meridian = GeodesicState(0.3, -0.2, 1.0, 0, 0, 1.0)
    normalized = H14A.normalize_timelike(meridian)
    assert normalized == meridian


def test_normalize_timelike_rejects_null_and_spacelike():
    null_state = GeodesicState(0, 0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(NotTimelikeError):
        H14A.normalize_timelike(null_state)
    spacelike = GeodesicState(0, 0, 1.0, 2.0, 0.0, 0.5)
    with pytest.raises(NotTimelikeError):
        H14A.normalize_timelike(spacelike)


def test_domain_hard_fail():
    with pytest.raises(DomainError):
        H14A.immerse(0.0, 0.0, 11.0)
    with pytest.raises(DomainError):
        H14A.metric_coefficients(-0.5)
    with pytest.raises(DomainError):
        H14A.tangent_frame(0.0, 0.0, 10.5)


def test_family_requires_shared_domain():
    from rotsurf import FamilyKind, ProfileFunction, SurfaceFamily, Variant
    fa = ProfileFunction.from_text("t", 0.0, 1.0)
    fb = ProfileFunction.from_text("1", 0.0, 2.0)
    with pytest.raises(ValueError):
        SurfaceFamily(FamilyKind.HYPERBOLIC14, Variant.A, fa, fb)


# --- the generated metric bundle against six ProfileFunction calls -------

PAIRS = [(kind, variant) for kind in ("hyperbolic14", "hyperbolic23", "elliptic56")
         for variant in ("A", "B")]


def six_call_bundle(fam, t):
    """The metric bundle from six separate, domain-checked profile calls."""
    lay = fam.spec
    fa = fam.fa.evaluate(t)
    fb = fam.fb.evaluate(t)
    dfa = fam.fa.derivative(t)
    dfb = fam.fb.derivative(t)
    d2fa = fam.fa.second_derivative(t)
    d2fb = fam.fb.second_derivative(t)
    return (lay.e_sign * fa * fa, lay.g_sign * fb * fb,
            lay.na_sign * dfa * dfa + lay.nb_sign * dfb * dfb,
            2.0 * lay.e_sign * fa * dfa, 2.0 * lay.g_sign * fb * dfb,
            2.0 * (lay.na_sign * dfa * d2fa + lay.nb_sign * dfb * d2fb))


_profile_tree = _tree(4, _lowering_leaf, _lowering_func, ("+", "-", "*", "/", "^"))


@settings(max_examples=300, deadline=None)
@example(PAIRS[0], "sqrt(t)", "log(t)", -0.5)
@example(PAIRS[1], "t", "1/t", 0.0)
@example(PAIRS[2], "sqrt(t)", "2", 0.0)
@example(PAIRS[3], "t + log(0)", "t", 1.0)
@example(PAIRS[4], "t/sqrt(2)", "exp(t*800)", 1.0)
@example(PAIRS[5], "t", "t", 5.5)
@given(st.sampled_from(PAIRS), _profile_tree, _profile_tree,
       st.one_of(st.floats(-6, 6), st.sampled_from([0.0, -0.0, 1.0, -1.0])))
def test_bundle_kernel_matches_six_profile_calls(pair, fa_text, fb_text, t):
    fam = make_family(*pair, fa_text, fb_text, -5.0, 5.0)
    assert _outcome(fam.metric_bundle, t) == _outcome(
        lambda x: six_call_bundle(fam, x), t)


@pytest.mark.parametrize("fa_text,fb_text,t,message", [
    ("sqrt(t)", "log(t)", -0.5, "sqrt of a negative number"),   # fa first
    ("t", "1/t", 0.0, "division by zero"),                     # then fb
    ("sqrt(t)", "2", 0.0, "division by zero"),                 # then fa'
    ("t", "t^0.5", -1.0, "negative base with non-integer exponent"),
    ("t", "t", 5.5, "t=5.5 outside profile domain [-5.0, 5.0]"),
    ("t", "t", math.nan, "t=nan outside profile domain [-5.0, 5.0]"),
])
def test_bundle_kernel_raises_the_first_fault(fa_text, fb_text, t, message):
    for pair in PAIRS:
        fam = make_family(*pair, fa_text, fb_text, -5.0, 5.0)
        with pytest.raises(DomainError) as kernel:
            fam.metric_bundle(t)
        with pytest.raises(DomainError) as reference:
            six_call_bundle(fam, t)
        assert str(kernel.value) == str(reference.value) == message


def test_faulting_constant_subtree_raises_only_when_evaluated():
    fam = make_family("hyperbolic23", "A", "t + log(0)", "1 + t/sqrt(2)", -1.0, 6.0)
    with pytest.raises(DomainError, match="log of a non-positive number"):
        fam.metric_bundle(0.5)
    with pytest.raises(DomainError, match="log of a non-positive number"):
        fam.fa.evaluate(0.5)
    with pytest.raises(DomainError, match="log of a non-positive number"):
        fam._pair_fn(0.5)
    # the folded constant sqrt(2) is computed once, when the trees are
    # lowered, while log(0) is left to raise where it is evaluated
    names = fam._pair_fn.__code__.co_names
    assert "sqrt" not in names and "log" in names
    assert fam.fb.evaluate(0.5) == 1.0 + 0.5 / math.sqrt(2.0)


def test_family_pickles_after_metric_bundle():
    for pair in PAIRS:
        fam = make_family(*pair, "2 + t/sqrt(2)", "1 + t/sqrt(2)", -1.0, 6.0)
        fresh = make_family(*pair, "2 + t/sqrt(2)", "1 + t/sqrt(2)", -1.0, 6.0)
        bundle = fam.metric_bundle(0.5)
        # the generated RK4 run and (fa, fb) pair are kept on the instance too
        start = GeodesicState(0.0, 0.0, 0.5, 0.3, 0.2, 1.2)
        rows = integrate(fam, start, 0.1, 0.01).rows
        invariants = invariant_rows(fam, rows)
        assert fam == fresh
        assert repr(fam) == repr(fresh)
        assert hash(fam) == hash(fresh)
        restored = pickle.loads(pickle.dumps(fam))
        assert restored == fresh
        assert restored.metric_bundle(0.5) == bundle
        assert integrate(restored, start, 0.1, 0.01).rows == rows
        assert invariant_rows(restored, rows) == invariants


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_one_lowering_per_family(order, monkeypatch):
    """The RK4 run, ``metric_bundle`` and ``invariant_rows``' (fa, fb) pair
    are all built from one lowering of the family's six trees, whichever
    runs first."""
    family = ("hyperbolic23", "A", "2 + t/sqrt(2) + sin(t)/3", "1 + t/2",
              -1.0, 3.0)
    start = GeodesicState(0.0, 0.0, 0.5, 0.3, 0.2, 1.2)
    rows = integrate(make_family(*family), start, 0.1, 0.01).rows
    built = []
    init = expressions._Lowering.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(expressions._Lowering, "__init__", counted)
    fam = make_family(*family)
    uses = [lambda: fam.metric_bundle(0.5),
            lambda: integrate(fam, start, 0.1, 0.01),
            lambda: invariant_rows(fam, rows)]
    for index in order:
        uses[index]()
    assert built == [fam._lowering[0]]
    # each function is compiled in its own copy of the namespace, so the
    # run binds the same names whichever was compiled first
    names = make_family(*family)._run_fn.__kwdefaults__.keys()
    assert fam._run_fn.__kwdefaults__.keys() == names


def _unread(source: str) -> set:
    """The names a function of ``source`` stores and never loads."""
    unread = set()
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, ast.FunctionDef):
            names = [node for node in ast.walk(function)
                     if isinstance(node, ast.Name)]
            unread |= ({name.id for name in names
                        if isinstance(name.ctx, ast.Store)}
                       - {name.id for name in names
                          if isinstance(name.ctx, ast.Load)})
    return unread


@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("fa_text,fb_text", [
    ("2.1 + 0.8*t", "1.1 + 0.2*t"),                   # N folded
    ("2.1 + t/sqrt(2) + sin(t)/3.7", "1.1 + 0.2*t"),  # N depends on t
    ("exp(t/3)*cos(t)", "2 + t"),
])
def test_generated_functions_read_every_name_they_assign(
        pair, fa_text, fb_text, monkeypatch):
    """``metric_bundle``, the (fa, fb) pair and the RK4 run each load every
    name they store: the run's own n2 is not computed by the bundle."""
    sources, real_compile = [], builtins.compile

    def recording(source, filename, *args, **kwargs):
        if filename in ("<lowered expression>", "<generated RK4 run>"):
            sources.append(source)
        return real_compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", recording)
    fam = make_family(*pair, fa_text, fb_text, -1.0, 3.0)
    fam.metric_bundle(0.5)
    fam._pair_fn
    fam._run_fn
    assert len(sources) == 3
    for source in sources:
        assert _unread(source) == set(), source
