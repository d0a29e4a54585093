"""Parser, evaluator, symbolic derivatives, profile functions."""

import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotsurf import (DomainError, ParseError, ProfileFunction, differentiate,
                     evaluate, make_family, parse, to_text)
from rotsurf import expressions
from rotsurf.expressions import ExprError, Literal, _Lowering, _node_count


def _lower(expr, domain=None):
    """``expr`` lowered alone, over ``domain`` if given, as a function of t."""
    lowering = _Lowering(domain)
    return lowering.function(lowering.emit(expr))


def central_difference(expr, t, h):
    return (evaluate(expr, t + h) - evaluate(expr, t - h)) / (2.0 * h)


def test_parse_basic_arithmetic():
    assert evaluate(parse("2*t+1"), 3.0) == 7.0


def test_parse_hyperbolic_identity():
    expr = parse("cosh(t)^2 - sinh(t)^2")
    assert evaluate(expr, 1.7) == pytest.approx(1.0, abs=1e-12)


_TOO_DEEP = "expression nested deeper than 64 levels"
_PARSE_ERRORS = [
    ("", "empty expression", 1, "syntax"),
    ("   ", "empty expression", 1, "syntax"),
    ("t @ 2", "unexpected character '@'", 3, "syntax"),
    ("  @", "unexpected character '@'", 3, "syntax"),
    # digits and spaces of other scripts are no numbers or spaces
    ("\u0663*t", "unexpected character '\u0663'", 1, "syntax"),
    ("\uff11+t", "unexpected character '\uff11'", 1, "syntax"),
    ("t\xa0+ 1", "unexpected character '\\xa0'", 2, "syntax"),
    ("1 2", "unexpected '2'", 3, "syntax"),
    ("t)", "unexpected ')'", 2, "syntax"),
    ("t,t", "unexpected ','", 2, "syntax"),
    ("(t", "expected ')'", 3, "syntax"),
    ("sin(t", "expected ')'", 6, "syntax"),
    ("t +", "expected a value", 4, "syntax"),
    ("*t", "expected a value", 1, "syntax"),
    ("()", "expected a value", 2, "syntax"),
    ("2^", "expected a value", 3, "syntax"),
    ("-", "expected a value", 2, "syntax"),
    ("2*1e400", "number '1e400' out of range", 3, "syntax"),
    ("foo(t)", "unknown function 'foo'", 1, "unknown_identifier"),
    ("2*q", "unknown identifier 'q'", 3, "unknown_identifier"),
    ("sin t", "unknown identifier 'sin'", 1, "unknown_identifier"),
    ("sin(t, t)", "sin takes exactly one argument", 6, "arity"),
    ("sin(t,)", "sin takes exactly one argument", 6, "arity"),
    # the depth bound while parsing, before a later syntax error; the
    # tree's depth after the whole text parses, so after a trailing token
    ("(" * 65 + "t" + ")" * 65, _TOO_DEEP, None, None),
    ("(" * 65 + "t", _TOO_DEEP, None, None),
    ("-" * 64 + "t", _TOO_DEEP, None, None),
    ("^".join(["2"] * 65), _TOO_DEEP, None, None),
    ("(" * 64 + "t @", "unexpected character '@'", 67, "syntax"),
    ("+".join(["t"] * 65), _TOO_DEEP, None, None),
    ("+".join(["t"] * 65) + ")", "unexpected ')'", 130, "syntax"),
]


@pytest.mark.parametrize(
    "text,message,position,kind", _PARSE_ERRORS,
    ids=[repr(text) if len(text) < 12 else f"{text[:6]!r}...({len(text)})"
         for text, *_ in _PARSE_ERRORS])
def test_parse_errors(text, message, position, kind):
    # a ParseError carries the 1-based position and kind; the depth
    # bound's ExprError carries neither
    with pytest.raises(ExprError) as info:
        parse(text)
    error = info.value
    assert isinstance(error, ParseError) is (position is not None)
    expected = (message if position is None
                else f"{message} at position {position}")
    assert (str(error), getattr(error, "position", None),
            getattr(error, "kind", None)) == (expected, position, kind)


def sine_sum(n):
    """sin(1*t) + ... + sin(n*t), summed as a balanced tree: its second
    derivative has 10 n - 5 nodes, and its depth stays small."""
    terms = [f"sin({k + 1}*t)" for k in range(n)]
    while len(terms) > 1:
        pairs = [f"({a} + {b})" for a, b in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[len(pairs) * 2:]
    return terms[0]


@pytest.mark.parametrize("text,accepted", [
    # 64 levels, and one more: a chain, nested unary minus, parentheses
    # and a right-associative power
    ("+".join(["t"] * 64), True),
    ("+".join(["t"] * 65), False),
    ("-" * 63 + "t", True),
    ("-" * 64 + "t", False),
    ("(" * 63 + "t" + ")" * 63, True),
    ("(" * 64 + "t" + ")" * 64, False),
    ("^".join(["2"] * 64), True),
    ("^".join(["2"] * 65), False),
    # mixes: no one mechanism passes 64 levels, the tree does (40 + 40,
    # 30 + 40, 30 + 40), or it has exactly 64 and one more
    ("-" * 40 + "(" + "+".join(["t"] * 40) + ")", False),
    ("sin(" * 30 + "+".join(["t"] * 40) + ")" * 30, False),
    ("2^" * 30 + "(" + "*".join(["t"] * 40) + ")", False),
    ("-" * 24 + "(" + "+".join(["t"] * 40) + ")", True),
    ("-" * 25 + "(" + "+".join(["t"] * 40) + ")", False),
    ("sin(" * 4 + "+".join(["1"] * 59 + ["t"]) + ")" * 4, True),
    ("sin(" * 5 + "+".join(["1"] * 59 + ["t"]) + ")" * 5, False),
    ("2^" * 4 + "(" + "*".join(["1"] * 59 + ["t"]) + ")", True),
    ("2^" * 5 + "(" + "*".join(["1"] * 59 + ["t"]) + ")", False),
    # far past it: these once overflowed the stack of the parser, of repr
    # or of differentiate
    ("+".join(["t"] * 1000), False),
    ("-" * 5000 + "t", False),
])
def test_parse_bounds_the_depth(text, accepted):
    if accepted:
        differentiate(differentiate(parse(text)))
        return
    with pytest.raises(ExprError, match="nested deeper than 64 levels"):
        parse(text)


@pytest.mark.parametrize("text,nodes", [
    (sine_sum(500) + " + exp(t) + t*t", None),
    (sine_sum(500) + " + t^3", 5001),
    # 45 factors: a second derivative of 60631 nodes, which took seconds
    # to lower into the RK4 run
    ("0.5 + " + "*".join(["t"] * 45), 60631),
])
def test_differentiate_bounds_the_node_count(text, nodes):
    d1 = differentiate(parse(text))
    if nodes is None:
        assert _node_count(differentiate(d1), {}) == 5000
        return
    with pytest.raises(ExprError,
                       match=f"derivative has {nodes} nodes, more than 5000"):
        differentiate(d1)


def test_precedence():
    assert evaluate(parse("2^3^2"), 0.0) == 512.0          # right-associative
    assert evaluate(parse("-2^2"), 0.0) == -4.0            # ^ binds over unary -
    assert evaluate(parse("2^-1"), 0.0) == 0.5             # unary - in exponent
    assert evaluate(parse("1+2*3"), 0.0) == 7.0
    assert evaluate(parse("2 * -3"), 0.0) == -6.0
    assert evaluate(parse("(1+2)*3"), 0.0) == 9.0


def test_constants():
    assert evaluate(parse("pi"), 0.0) == math.pi
    assert evaluate(parse("e"), 0.0) == math.e
    assert evaluate(parse("cos(pi)"), 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_evaluate_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("1/t"), 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(t)"), -1.0)
    with pytest.raises(DomainError):
        evaluate(parse("log(t)"), 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("log(t)"), -3.0)
    with pytest.raises(DomainError):
        evaluate(parse("t^(0-1)"), 0.0)            # 0 to a negative power
    with pytest.raises(DomainError):
        evaluate(parse("(0-2)^(1/2)"), 0.0)        # negative base, non-integer
    with pytest.raises(DomainError):
        evaluate(parse("cosh(t)"), 1000.0)         # overflow surfaces as error
    with pytest.raises(DomainError):
        evaluate(parse("exp(t)"), 1e6)
    # 1e308 * 2 is not folded into a literal inf; it overflows when evaluated
    profile = ProfileFunction.from_text("1e308*t^2", 0.0, 1.0)
    with pytest.raises(DomainError):
        evaluate(profile.d2, 0.5)
    with pytest.raises(DomainError):
        profile.second_derivative(0.5)


def test_evaluate_simple_values():
    assert evaluate(parse("sqrt(t)"), 4.0) == 2.0
    assert evaluate(parse("exp(log(t))"), 2.5) == pytest.approx(2.5, abs=1e-14)
    assert evaluate(parse("(0-2)^3"), 0.0) == -8.0
    assert evaluate(parse("0^0"), 0.0) == 1.0


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("text", ["t", "log(t)", "sin(t)", "2"])
def test_evaluate_rejects_a_non_finite_t(text, t):
    # walked, t would return nan, log(inf) inf and sin(inf) a bare ValueError
    with pytest.raises(DomainError, match=f"^t={t!r} is not finite$"):
        evaluate(parse(text), t)


def test_parse_ignores_trailing_whitespace():
    assert parse("t  ") == parse("t")
    assert parse("sin(t)\n") == parse("sin(t)")


def test_derivative_sinh():
    d = differentiate(parse("sinh(t)"))
    assert evaluate(d, 0.0) == 1.0


def test_derivative_product_rule():
    expr = parse("t^2 * cos(t)")
    d = differentiate(expr)
    assert evaluate(d, 0.0) == 0.0
    for t in (0.4, 1.1, -0.9):
        assert evaluate(d, t) == pytest.approx(
            central_difference(expr, t, 1e-6), abs=1e-7)


def test_derivative_constant_is_literal_zero():
    d = differentiate(parse("7"))
    assert d == Literal(0.0)
    assert differentiate(parse("pi * 3")) == Literal(0.0)


def test_derivative_general_exponent():
    # d/dt t^t = t^t (log t + 1); equals 1 at t = 1
    d = differentiate(parse("t^t"))
    assert evaluate(d, 1.0) == pytest.approx(1.0, abs=1e-12)
    expr = parse("t^t")
    for t in (0.5, 1.3, 2.0):
        assert evaluate(d, t) == pytest.approx(
            central_difference(expr, t, 1e-6), rel=1e-6)


ROUND_TRIP_CASES = [
    "2*t+1",
    "cosh(t)^2 - sinh(t)^2",
    "-t^2 + 3*t - 5",
    "t/(1+t^2)",
    "sin(t)*cos(t) - tan(t/4)",
    "exp(-t^2/2)",
    "sqrt(t^2 + 1)",
    "log(t^2 + 1) / (2 - sin(t))",
    "2^-t",
    "-(t - 1)*(t + 1)",
    "1.5e-2 * t + 2.25",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_print_parse_round_trip(text):
    expr = parse(text)
    reparsed = parse(to_text(expr))
    for k in range(20):
        t = -1.9 + 0.2 * k
        assert evaluate(reparsed, t) == pytest.approx(
            evaluate(expr, t), abs=1e-15, rel=1e-15)


_leaf = st.sampled_from(["t", "2", "0.5", "pi", "3"])
_func = st.sampled_from(["sin", "cos", "sinh", "cosh", "tanh", "exp"])


def _tree(depth, leaf=_leaf, func=_func, ops=("+", "-", "*")):
    if depth == 0:
        return leaf
    sub = _tree(depth - 1, leaf, func, ops)
    return st.one_of(
        leaf,
        st.builds(lambda a, b, op: f"({a} {op} {b})", sub, sub,
                  st.sampled_from(ops)),
        st.builds(lambda f, a: f"{f}({a})", func, sub),
        st.builds(lambda a: f"-({a})", sub),
    )


@settings(max_examples=60, deadline=None)
@given(_tree(3), st.floats(-2, 2, allow_nan=False))
def test_random_trees_round_trip_and_derivative(text, t):
    expr = parse(text)
    reparsed = parse(to_text(expr))
    # nested sinh/cosh/exp may overflow: by contract both trees then raise
    try:
        value = evaluate(expr, t)
    except DomainError:
        with pytest.raises(DomainError):
            evaluate(reparsed, t)
        return
    assert evaluate(reparsed, t) == pytest.approx(value, abs=1e-12, rel=1e-12)
    d = differentiate(expr)
    h = 1e-5 * (1.0 + abs(t))
    try:
        numeric = central_difference(expr, t, h)
        exact = evaluate(d, t)
    except DomainError:
        return      # a neighbour or the derivative overflows
    assert exact == pytest.approx(numeric, abs=1e-6 * (1.0 + abs(numeric)))


_lowering_leaf = st.sampled_from(["t", "0", "2", "0.5", "pi", "3", "800"])
_lowering_func = st.sampled_from(["sin", "cos", "tan", "sinh", "cosh", "tanh",
                                  "exp", "log", "sqrt"])


def _outcome(fn, t):
    """repr of the value (exact, signed zeros apart) or the error message."""
    try:
        return ("value", repr(fn(t)))
    except DomainError as exc:
        return ("error", str(exc))


@settings(max_examples=300, deadline=None)
@example("sqrt(t)", -0.5)
@example("log(t)", 0.0)
@example("log(t)", -0.0)
@example("1/t", 0.0)
@example("t^(0-1)", 0.0)
@example("t^0.5", -1.0)
@example("t^2", -1.0)
@example("sinh(800)", 0.0)
@example("exp(t*800)", 1.0)
@example("800^800", 0.0)
@example("tan(pi/2)", 0.0)
@example("-(t) + 0", -0.0)
@given(_tree(4, _lowering_leaf, _lowering_func, ("+", "-", "*", "/", "^")),
       st.one_of(st.floats(-3, 3), st.sampled_from([0.0, -0.0, 1.0, -1.0])))
def test_lowered_profile_matches_tree_walker(text, t):
    # the generated bundle, RK4 run and (fa, fb) pair lower all three
    profile = ProfileFunction.from_text(text, -5.0, 5.0)
    for tree in (profile.value, profile.d1, profile.d2):
        assert _outcome(_lower(tree), t) == _outcome(
            lambda x: evaluate(tree, x), t)


def test_lowering_keeps_equality_and_repr():
    # a profile is plain data: evaluating it caches nothing on the instance
    used = ProfileFunction.from_text("2 + t/sqrt(2)", 0.0, 1.0)
    fresh = ProfileFunction.from_text("2 + t/sqrt(2)", 0.0, 1.0)
    used.evaluate(0.5)
    used.second_derivative(0.5)
    assert vars(used) == vars(fresh)
    assert "__getstate__" not in vars(ProfileFunction)
    assert used == fresh
    assert repr(used) == repr(fresh)
    restored = pickle.loads(pickle.dumps(used))
    assert restored == fresh
    assert restored.evaluate(0.5) == used.evaluate(0.5)


@pytest.mark.parametrize("text,kept", [
    # a folded operand that cannot trip a check emits none
    ("t/sqrt(2)", []),
    ("t^2", []),
    # a constant that can trip one keeps it
    ("t^0.5", ["non-integer exponent"]),
    ("t^(0-1)", ["zero raised to a negative power"]),
    ("t/(1-1)", ["division by zero"]),
    ("t/t", ["division by zero"]),
    ("t^t", ["zero raised to a negative power", "non-integer exponent"]),
])
def test_lowering_emits_only_checks_a_folded_constant_can_trip(text, kept):
    lowering = _Lowering()
    lowering.emit(parse(text))
    checks = [message for message in ("division by zero",
                                      "zero raised to a negative power",
                                      "non-integer exponent")
              if any(message in line for line in lowering.lines)]
    assert checks == kept


_UNBOUNDED_LINES = [
    "v3 = t / c2",
    "if not isfinite(v3): raise DomainError('division produced a non-finite value')",
    "v4 = c1 + v3",
    "if not isfinite(v4): raise DomainError('addition produced a non-finite value')",
    "try:",
    "    v5 = sin(t)",
    "except OverflowError as exc:",
    "    raise DomainError('sin overflow') from exc",
    "if not isfinite(v5): raise DomainError('sin produced a non-finite value')",
    "v6 = v4 + v5",
    "if not isfinite(v6): raise DomainError('addition produced a non-finite value')",
]


def test_bounds_drop_only_the_checks_they_rule_out():
    # without a domain of t every check stays; on [0.1, 3] each of
    # t/sqrt(2), sin(t) and their sums is bounded well within 1e300
    unbounded, bounded = _Lowering(), _Lowering((0.1, 3.0))
    for lowering in (unbounded, bounded):
        assert lowering.emit(parse("2 + t/sqrt(2) + sin(t)")) == "v6"
    assert unbounded.lines == _UNBOUNDED_LINES
    assert bounded.lines == [line for line in _UNBOUNDED_LINES
                             if "isfinite" not in line]
    # a divisor bounded away from 0 drops the zero check; one whose bounds
    # contain 0, or a product bounded beyond 1e300, keeps its checks
    for text, domain, kept in [
            ("1/(t + 2)", (0.0, 1.0), []),
            ("1/(t - 1)", (0.0, 2.0), ["division by zero", "isfinite"]),
            ("sin(t)*1e300", (0.0, 1.0), ["isfinite"]),
            ("t*t*1e154", (0.0, 1e78), ["isfinite"])]:
        lowering = _Lowering(domain)
        lowering.emit(parse(text))
        assert [word for word in ("division by zero", "isfinite")
                if any(word in line for line in lowering.lines)] == kept


def test_lowering_visits_each_node_a_bounded_number_of_times(monkeypatch):
    """One bottom-up scan per node and one emit: a 64-deep chain is not
    walked again from each of its nodes."""
    visits = {}
    children = expressions._children

    def counted(expr):
        visits[id(expr)] = visits.get(id(expr), 0) + 1
        return children(expr)

    monkeypatch.setattr(expressions, "_children", counted)
    for text in ("t" + " + 1" * 63, "1" + " + 1" * 62 + " + t"):
        tree = parse(text)
        for domain in (None, (0.0, 1.0)):
            visits.clear()
            assert _lower(tree, domain)(0.5) == evaluate(tree, 0.5)
            assert len(visits) == 127  # every node, each at most twice
            assert max(visits.values()) <= 2


def test_shared_nodes_are_emitted_once_per_body():
    # d/dt sin(t*t) = cos(t*t) * (t + t) reuses the value's t*t node
    profile = ProfileFunction.from_text("sin(t*t)", 0.0, 1.0)
    lowering = _Lowering()
    lowering.emit(profile.value)
    lowering.emit(profile.d1)
    assert sum(line.endswith("= t * t") for line in lowering.lines) == 1
    # ``differentiate`` builds new sin(t) and cos(t) nodes for d1 and d2 of
    # sin(t): the same function of the same operand is emitted once too, so
    # the bundle of the trajectory workload's nested profile calls each once
    fam = make_family("hyperbolic23", "A", "2.1 + t/sqrt(2) + sin(t)/3.7",
                      "1.1 + 0.2*t", -1.0, 3.0)
    lines = fam._lowering[0].lines
    assert sum("sin(" in line for line in lines) == 1
    assert sum("cos(" in line for line in lines) == 1


_DOMAIN = st.tuples(st.floats(-3, 3), st.floats(1e-3, 4), st.floats(0, 1))


@settings(max_examples=300, deadline=None)
@example("exp(t*800)", (0.0, 1.0, 1.0))
@example("1e154*t*t", (0.0, 1e78, 1.0))
@example("1e154*t*t", (0.0, 1e78, 0.1))
@example("1/(t-1)", (0.0, 2.0, 0.5))
@example("1/(t-1)", (0.0, 2.0, 0.25))
@example("sin(t)*1e300", (0.0, 1.0, 1.0))
@example("-(t) + 0", (-1.0, 1.0, 0.5))
@given(_tree(4, _lowering_leaf, _lowering_func, ("+", "-", "*", "/", "^")),
       _DOMAIN)
def test_bounded_lowering_matches_tree_walker(text, domain):
    """The generated bundle, RK4 run and (fa, fb) pair lower over the
    profile domain, dropping the checks their bounds rule out."""
    lo, width, at = domain
    hi = lo + width
    t = min(hi, lo + at * width)
    profile = ProfileFunction.from_text(text, lo, hi)
    for tree in (profile.value, profile.d1, profile.d2):
        assert _outcome(_lower(tree, (lo, hi)), t) == _outcome(
            lambda x: evaluate(tree, x), t)


PROFILE_CASES = [
    ("t", 0.1, 5.0),
    ("1", -2.0, 2.0),
    ("2 + t/sqrt(2)", -1.0, 6.0),
    ("t+2", -1.5, 6.0),
    ("cosh(t)", -2.0, 2.0),
    ("sinh(t)", -2.0, 2.0),
    ("2 + t^2/8", 0.1, 2.0),
    ("1 + t/2", 0.0, 4.0),
    ("exp(t/3)*cos(t)", -1.0, 3.0),
]


@pytest.mark.parametrize("text,lo,hi", PROFILE_CASES)
def test_profile_derivatives_match_central_differences(text, lo, hi):
    profile = ProfileFunction.from_text(text, lo, hi)
    inset = 1e-3 * (hi - lo)
    for k in range(100):
        t = lo + inset + (hi - lo - 2 * inset) * k / 99.0
        h = 1e-5 * (1.0 + abs(t))
        d1 = profile.derivative(t)
        fd1 = (profile.evaluate(t + h)
               - profile.evaluate(t - h)) / (2.0 * h)
        assert abs(d1 - fd1) <= 1e-7 * (1.0 + abs(d1))
        d2 = profile.second_derivative(t)
        fd2 = (profile.derivative(t + h)
               - profile.derivative(t - h)) / (2.0 * h)
        assert abs(d2 - fd2) <= 1e-7 * (1.0 + abs(d2))


def test_profile_domain_guard():
    profile = ProfileFunction.from_text("t^2", 0.0, 1.0)
    assert profile.evaluate(0.5) == 0.25
    with pytest.raises(DomainError):
        profile.evaluate(1.5)
    with pytest.raises(DomainError):
        profile.derivative(-0.1)
    with pytest.raises(DomainError):
        profile.second_derivative(1.0001)


def test_profile_check_is_the_evaluation_domain():
    profile = ProfileFunction.from_text("t^2", 0.1, 1.5)
    for t in (0.1, 1.5):
        assert profile.check(t) is None
    for t in (math.nextafter(0.1, -math.inf), math.nextafter(1.5, math.inf)):
        with pytest.raises(DomainError) as expected:
            profile.evaluate(t)
        with pytest.raises(DomainError) as got:
            profile.check(t)
        assert str(got.value) == str(expected.value) == (
            f"t={t!r} outside profile domain [0.1, 1.5]")


def test_profile_requires_ordered_finite_domain():
    with pytest.raises(ValueError):
        ProfileFunction.from_text("t", 2.0, 1.0)
    with pytest.raises(ValueError):
        ProfileFunction.from_text("t", 0.0, math.inf)
