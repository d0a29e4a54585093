"""Expression language for profile curves.

A small closed grammar over one variable ``t``: real literals, the
constants ``pi`` and ``e``, binary ``+ - * / ^`` (with ``^`` binding
tightest and right-associative), unary minus, and the functions ``sin``,
``cos``, ``tan``, ``sinh``, ``cosh``, ``tanh``, ``exp``, ``log``,
``sqrt``.  Expressions are immutable trees; evaluation is pure and never
returns NaN or infinity (domain faults raise ``DomainError`` instead).

``differentiate`` produces exact symbolic derivatives with constant
subtrees folded, so first and second derivatives of a profile are
noise-free wherever curvature formulas consume them.

``evaluate`` walks a tree.  ``_Lowering`` turns trees into straight-line
statements with the same float operations, order and errors, t-free
subtrees evaluated once, a value computed twice emitted once, and no check
that bounds on the domain rule out.  That costs 25-46 walks, so a family
lowers its six profile trees once, into one body that its RK4 run, metric
bundle and per-row (fa, fb) pair share; ``ProfileFunction`` walks.
Trees are bounded as they are built, never walked again for it: the
parser carries each node's depth up from its children and rejects a
tree deeper than 64 levels, and ``differentiate`` counts its result's
nodes in one pass (a shared subtree counted once per use, found once)
and rejects more than 5,000.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from contextlib import suppress
from itertools import count, product
from typing import Callable

from ._record import Record

__all__ = [
    "Expr",
    "Literal",
    "Variable",
    "Negate",
    "Binary",
    "Call",
    "ExprError",
    "ParseError",
    "DomainError",
    "parse",
    "evaluate",
    "differentiate",
    "to_text",
    "ProfileFunction",
]


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Malformed input.  ``position`` is 1-based; ``kind`` is one of
    ``syntax``, ``unknown_identifier``, ``arity``."""

    def __init__(self, message: str, position: int, kind: str = "syntax"):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.kind = kind


class DomainError(ExprError):
    """Evaluation left the real domain (log/sqrt of a negative number,
    division by zero, zero to a negative power, overflow)."""


class Expr(Record):
    """Marker base class for expression nodes."""


class Literal(Expr):
    value: float


class Variable(Expr):
    pass


class Negate(Expr):
    arg: Expr


class Binary(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


class Call(Expr):
    name: str
    arg: Expr


_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "exp": math.exp,
    "log": math.log,   # guarded by ``_GUARDS``
    "sqrt": math.sqrt,
}

# log's and sqrt's argument rules: the failing test as source text, as a
# predicate of (argument, 0.0), and its message; such a value is finite
_GUARDS = {"log": ("<=", operator.le, "log of a non-positive number"),
           "sqrt": ("<", operator.lt, "sqrt of a negative number")}

# what each operation is called in its error messages; a function, its name
_CONTEXTS = {"+": "addition", "-": "subtraction", "*": "multiplication",
             "/": "division", "^": "power",
             **{name: name for name in _FUNCTIONS}}
# + - * / as float operations: constant folding and the lowering's bounds
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_VARIABLE_NAME = "t"

# how tightly each binary operator binds, and unary minus between them; the
# parser and ``to_text`` read both, and an atom binds tighter than all
_BINDS = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY, _ATOM = 3, 5
# the operators that bind at least as tightly as each level
_JOINS = {level: "".join(op for op, binds in _BINDS.items() if binds >= level)
          for level in range(1, _UNARY + 1)}

_MAX_DEPTH, _MAX_NODES = 64, 5_000
_TOO_DEEP = f"expression nested deeper than {_MAX_DEPTH} levels"

# a "bad" token: a character, not space, that starts no other token; with
# re.ASCII, \d and \s match no other script's digits or spaces
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])|(?P<bad>\S))", re.ASCII)


# kind: number | name | op | end; pos: 0-based offset into the source
_Token = namedtuple("_Token", "kind text pos")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):  # trailing space matches nothing
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {match[kind]!r}",
                             match.start(kind) + 1)
        tokens.append(_Token(kind, match[kind], match.start(kind)))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Precedence climbing over ``_BINDS``: the loop in ``binary`` joins
    the operators looser than unary minus, left-associative, and ``unary``
    the tighter ``^``, right-associative with an exponent that may be
    negated."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0  # of the ``unary`` calls open

    def take(self, symbols: str) -> _Token | None:
        """The next token, consumed, if it is an operator in ``symbols``."""
        token = self.tokens[self.index]
        if token.kind == "op" and token.text in symbols:
            self.index += 1
            return token
        return None

    def close(self):
        if not self.take(")"):
            raise ParseError("expected ')'", self.tokens[self.index].pos + 1)

    def parse(self) -> Expr:
        expr, depth = self.binary(1)
        trailing = self.tokens[self.index]
        if trailing.kind != "end":
            raise ParseError(f"unexpected {trailing.text!r}", trailing.pos + 1)
        if depth > _MAX_DEPTH:  # chains of + - * / nest, unseen
            raise ExprError(_TOO_DEEP)  # by ``self.depth``
        return expr

    # each method below returns (node, depth of the node as a tree)

    def binary(self, minimum: int) -> tuple[Expr, int]:
        """``unary`` operands joined, left-associative, by the operators
        that bind at least ``minimum``: + - * /, as ``unary`` takes ^."""
        expr, depth = self.unary()
        while token := self.take(_JOINS[minimum]):
            right, right_depth = self.binary(_BINDS[token.text] + 1)
            expr = Binary(token.text, expr, right)
            depth = 1 + max(depth, right_depth)
        return expr, depth

    def unary(self) -> tuple[Expr, int]:
        self.depth += 1  # every nesting, by (, - or ^, recurses through here
        if self.depth > _MAX_DEPTH:
            raise ExprError(_TOO_DEEP)
        if self.take("-"):
            arg, depth = self.unary()
            expr, depth = Negate(arg), depth + 1
        else:
            expr, depth = self.atom()
            if token := self.take(_JOINS[_UNARY]):
                exponent, exponent_depth = self.unary()
                expr = Binary(token.text, expr, exponent)
                depth = 1 + max(depth, exponent_depth)
        self.depth -= 1
        return expr, depth

    def atom(self) -> tuple[Expr, int]:
        token = self.tokens[self.index]
        self.index += 1
        if token.kind == "number":
            value = float(token.text)
            if not math.isfinite(value):
                raise ParseError(f"number {token.text!r} out of range",
                                 token.pos + 1)
            return Literal(value), 1
        if token.kind == "op" and token.text == "(":
            expr = self.binary(1)
            self.close()
            return expr
        if token.kind == "name":
            if self.take("("):
                if token.text not in _FUNCTIONS:
                    raise ParseError(f"unknown function {token.text!r}",
                                     token.pos + 1, kind="unknown_identifier")
                arg, depth = self.binary(1)
                if comma := self.take(","):
                    raise ParseError(f"{token.text} takes exactly one argument",
                                     comma.pos + 1, kind="arity")
                self.close()
                return Call(token.text, arg), depth + 1
            if token.text == _VARIABLE_NAME:
                return Variable(), 1
            if token.text in _CONSTANTS:
                return Literal(_CONSTANTS[token.text]), 1
            raise ParseError(f"unknown identifier {token.text!r}",
                             token.pos + 1, kind="unknown_identifier")
        raise ParseError("expected a value", token.pos + 1)


def _children(expr: Expr) -> tuple:
    if isinstance(expr, Binary):
        return (expr.left, expr.right)
    if isinstance(expr, (Negate, Call)):
        return (expr.arg,)
    return ()


def _node_count(expr: Expr, counts: dict[int, int]) -> int:
    """Nodes of ``expr`` as a tree, a shared subtree counted once per use;
    ``counts`` holds each node's count by identity, so it is found once."""
    total = counts.get(id(expr))
    if total is None:
        total = 1
        for kid in _children(expr):
            total += _node_count(kid, counts)
        counts[id(expr)] = total
    return total


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree over the variable ``t``."""
    if not text or not text.strip():
        raise ParseError("empty expression", 1)
    return _Parser(_tokenize(text)).parse()


def evaluate(expr: Expr, t: float) -> float:
    """Evaluate at ``t``; domain faults raise ``DomainError``, never NaN."""
    if not math.isfinite(t):
        raise DomainError(f"t={t!r} is not finite")
    return _evaluate(expr, t)


def _evaluate(expr: Expr, t: float) -> float:
    """``evaluate`` at a finite ``t``."""
    kind = type(expr)  # the node classes are final; the commonest first
    if kind is Binary:
        left = _evaluate(expr.left, t)
        right = _evaluate(expr.right, t)
        op = expr.op
        if op == "+":
            value = left + right
        elif op == "-":
            value = left - right
        elif op == "*":
            value = left * right
        elif op == "/":
            if right == 0.0:
                raise DomainError("division by zero")
            value = left / right
        else:
            if left == 0.0 and right < 0.0:
                raise DomainError("zero raised to a negative power")
            if left < 0.0 and right != math.floor(right):
                raise DomainError("negative base with non-integer exponent")
            try:
                value = left ** right
            except OverflowError as exc:
                raise DomainError(f"{_CONTEXTS[op]} overflow") from exc
    elif kind is Literal:
        return expr.value
    elif kind is Variable:
        return t
    elif kind is Negate:
        return -_evaluate(expr.arg, t)
    elif kind is Call:
        arg = _evaluate(expr.arg, t)
        op = expr.name
        if op in _GUARDS:
            _, fails, message = _GUARDS[op]
            if fails(arg, 0.0):
                raise DomainError(message)
            return _FUNCTIONS[op](arg)
        try:
            value = _FUNCTIONS[op](arg)
        except OverflowError as exc:
            raise DomainError(f"{_CONTEXTS[op]} overflow") from exc
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    if not math.isfinite(value):
        raise DomainError(f"{_CONTEXTS[op]} produced a non-finite value")
    return value


# ---------------------------------------------------------------------------
# lowering to straight-line Python

# a value bounded within +-_BOUND is finite; the margin absorbs rounding
_BOUND = 1e300


def _span(expr: Expr, args: list) -> tuple[float, float] | None:
    """Bounds of ``expr``'s value for operands within ``args``, from its
    float operation at their ends (sound: rounding is monotone); None if an
    operand is, if ``expr`` has no rule (+ - * /, unary minus, sin, cos) or
    if an end is not finite."""
    if None in args or isinstance(expr, Binary) and (
            expr.op == "^" or expr.op == "/" and args[1][0] <= 0.0 <= args[1][1]):
        return None
    if isinstance(expr, Call):
        return (-1.0, 1.0) if expr.name in ("sin", "cos") else None
    ends = ([-end for end in args[0]] if isinstance(expr, Negate) else
            [_ARITHMETIC[expr.op](x, y) for x, y in product(*args)])
    lo, hi = min(ends), max(ends)
    return (lo, hi) if math.isfinite(lo) and math.isfinite(hi) else None


class _Lowering:
    """Emits one statement group per node in ``evaluate``'s order, a node
    shared by several trees, or one of the same type and operation over the
    same operand names, once per body (its first statements run, and raise,
    before any later use of its name).  ``scan`` decides once per
    node, bottom up, whether it is free of ``t``, folds such a node into
    the constant ``evaluate`` gives it unless that raises, and bounds its
    value over the ``domain`` the caller has checked ``t`` to lie in (only
    folded nodes without one).  A check that bounds rule out is left out:
    division by a value bounded away from 0, a non-finite value within
    +-``_BOUND``, a negative or non-integer power of a folded exponent.

    The source holds only generated names (``t``, ``c<k>`` for literals,
    ``v<k>`` for node results), the names of ``_FUNCTIONS`` and fixed
    message strings; literal values and functions live in the namespace.
    ``scanned`` and ``names`` are keyed by node identity: the trees must
    outlive the lowering.
    """

    def __init__(self, domain: tuple[float, float] | None = None):
        self.lines: list[str] = []
        # the guarded functions up front, where generated sources list them
        self.namespace: dict = {"isfinite": math.isfinite,
                                "floor": math.floor,
                                **{name: _FUNCTIONS[name] for name in _GUARDS},
                                "DomainError": DomainError}
        self.count = count(1)  # of generated names
        self.domain = domain
        self.scanned: dict[int, tuple] = {}  # id -> (folded value, bounds)
        self.names: dict[int, str] = {}      # id -> name of its value
        self.values: dict[tuple, str] = {}   # (type, op, *operands) -> name

    def scan(self, expr: Expr) -> tuple:
        """(folded value or None, interval holding the value or None)."""
        if id(expr) not in self.scanned:
            kids = [self.scan(kid) for kid in _children(expr)]
            values = [kid[0] for kid in kids]
            value, bounds = None, self.domain
            if not isinstance(expr, Variable):
                if None not in values:  # the node over its operands' values
                    own = expr._fields[:len(expr._fields) - len(values)]
                    node = type(expr)(*[getattr(expr, name) for name in own],
                                      *map(Literal, values))  # operands last
                    with suppress(DomainError):
                        value = _evaluate(node, 0.0)
                bounds = ((value, value) if value is not None
                          else _span(expr, [kid[1] for kid in kids]))
            self.scanned[id(expr)] = value, bounds
        return self.scanned[id(expr)]

    def nonzero(self, expr: Expr, margin: float = 0.0) -> bool:
        """Whether the bounds of ``expr`` exclude [-margin, margin]."""
        bounds = self.scan(expr)[1]
        return bounds is not None and (bounds[0] > margin or bounds[1] < -margin)

    def emit(self, expr: Expr) -> str:
        """The name of ``expr``'s value, its statements emitted once."""
        if id(expr) not in self.names:
            self.names[id(expr)] = self._emit(expr)
        return self.names[id(expr)]

    def _emit(self, expr: Expr) -> str:
        value, bounds = self.scan(expr)
        if value is not None:
            name = f"c{next(self.count)}"
            self.namespace[name] = value
            return name
        if isinstance(expr, Variable):
            return "t"
        args = [self.emit(kid) for kid in _children(expr)]
        op = getattr(expr, "op", getattr(expr, "name", ""))
        key = (type(expr), op, *args)
        if key in self.values:  # the same operation on the same values
            return self.values[key]
        out = self.values[key] = f"v{next(self.count)}"
        lines = self.lines
        if isinstance(expr, Negate):
            lines.append(f"{out} = -{args[0]}")
            return out
        if op in _GUARDS:
            test, _, message = _GUARDS[op]
            lines.append(f"if {args[0]} {test} 0.0: "
                         f"raise DomainError('{message}')")
            lines.append(f"{out} = {op}({args[0]})")
            return out
        if op in _ARITHMETIC:
            left, right = args
            if op == "/" and not self.nonzero(expr.right):
                lines.append(f"if {right} == 0.0: "
                             f"raise DomainError('division by zero')")
            lines.append(f"{out} = {left} {op} {right}")
        else:
            if isinstance(expr, Binary):
                left, right = args
                # a folded exponent drops the checks it cannot trip
                known = self.scan(expr.right)[0]
                if known is None or known < 0.0:
                    lines.append(f"if {left} == 0.0 and {right} < 0.0: raise "
                                 f"DomainError('zero raised to a negative power')")
                if known is None or not float(known).is_integer():
                    lines.append(f"if {left} < 0.0 and {right} != floor({right}): "
                                 f"raise DomainError('negative base with "
                                 f"non-integer exponent')")
                call = f"{left} ** {right}"
            else:
                self.namespace[op] = _FUNCTIONS[op]
                call = f"{op}({args[0]})"
            lines += ["try:", f"    {out} = {call}",
                      "except OverflowError as exc:",
                      f"    raise DomainError('{_CONTEXTS[op]} overflow') from exc"]
        if bounds is None or max(-bounds[0], bounds[1]) >= _BOUND:
            lines.append(f"if not isfinite({out}): raise DomainError("
                         f"'{_CONTEXTS[op]} produced a non-finite value')")
        return out

    def function(self, result: str, count: int | None = None) -> Callable:
        """The first ``count`` statements (all by default) as the body of a
        function of ``t`` that returns ``result``, in a namespace copy."""
        body = "".join(f"    {line}\n" for line in self.lines[:count])
        source = f"def lowered(t):\n{body}    return {result}\n"
        namespace = dict(self.namespace)
        exec(compile(source, "<lowered expression>", "exec"), namespace)
        return namespace["lowered"]


# ---------------------------------------------------------------------------
# symbolic differentiation with constant folding

def _lit(value: float) -> Literal:
    return Literal(float(value))


_ZERO = _lit(0.0)
_ONE = _lit(1.0)


def _fold(op: str, a: Expr, b: Expr) -> Expr:
    """``Binary(op, a, b)``, or its value if both are literals; a fold
    that overflows stays unfolded, so evaluating it raises."""
    if isinstance(a, Literal) and isinstance(b, Literal):
        value = _ARITHMETIC[op](a.value, b.value)
        if math.isfinite(value):
            return _lit(value)
    return Binary(op, a, b)


def _is_const(expr: Expr, value: float) -> bool:
    return isinstance(expr, Literal) and expr.value == value


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _fold("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):  # 0 - b folds to -b, for b != 0 as a literal too
        return _neg(b)
    return _fold("-", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Literal):
        return _lit(-a.value)
    if isinstance(a, Negate):
        return a.arg
    return Negate(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return _fold("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    # ``_derivative`` divides by x^2, 2*sqrt(u), a log's argument or a
    # power's base: the last two are literals only over a zero derivative
    if _is_const(a, 0.0):
        return _ZERO
    return Binary("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return _ONE
    return Binary("^", a, b)


def differentiate(expr: Expr) -> Expr:
    """Exact derivative with respect to ``t``, constants folded;
    ``ExprError`` if it has more than ``_MAX_NODES`` nodes."""
    derivative = _derivative(expr)
    nodes = _node_count(derivative, {})
    if nodes > _MAX_NODES:
        raise ExprError(f"derivative has {nodes} nodes, more than {_MAX_NODES}")
    return derivative


def _derivative(expr: Expr) -> Expr:
    if isinstance(expr, Literal):
        return _ZERO
    if isinstance(expr, Variable):
        return _ONE
    if isinstance(expr, Negate):
        return _neg(_derivative(expr.arg))
    if isinstance(expr, Binary):
        da = _derivative(expr.left)
        db = _derivative(expr.right)
        a, b = expr.left, expr.right
        op = expr.op
        if op == "+":
            return _add(da, db)
        if op == "-":
            return _sub(da, db)
        if op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, _lit(2.0)))
        # power rule for a constant exponent, logarithmic rule otherwise
        if isinstance(b, Literal):
            return _mul(_mul(b, _pow(a, _lit(b.value - 1.0))), da)
        return _mul(_pow(a, b), _add(_mul(db, Call("log", a)), _mul(b, _div(da, a))))
    if isinstance(expr, Call):
        u = expr.arg
        du = _derivative(u)
        name = expr.name
        if name == "sin":
            return _mul(Call("cos", u), du)
        if name == "cos":
            return _neg(_mul(Call("sin", u), du))
        if name == "tan":
            return _div(du, _pow(Call("cos", u), _lit(2.0)))
        if name == "sinh":
            return _mul(Call("cosh", u), du)
        if name == "cosh":
            return _mul(Call("sinh", u), du)
        if name == "tanh":
            return _div(du, _pow(Call("cosh", u), _lit(2.0)))
        if name == "exp":
            return _mul(Call("exp", u), du)
        if name == "log":
            return _div(du, u)
        if name == "sqrt":
            return _div(du, _mul(_lit(2.0), Call("sqrt", u)))
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# canonical printing

def _wrap(expr: Expr, minimum: int) -> str:
    """``expr``'s text, in parentheses unless it binds at least ``minimum``."""
    binds = (_BINDS[expr.op] if isinstance(expr, Binary) else
             _UNARY if isinstance(expr, Negate) else _ATOM)
    return to_text(expr) if binds >= minimum else f"({to_text(expr)})"


def to_text(expr: Expr) -> str:
    """Canonical text form; reparsing reproduces the same tree values."""
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, Variable):
        return _VARIABLE_NAME
    if isinstance(expr, Negate):
        return "-" + _wrap(expr.arg, _UNARY)
    if isinstance(expr, Binary):
        binds = _BINDS[expr.op]
        if binds < _UNARY:
            left, right = _wrap(expr.left, binds), _wrap(expr.right, binds + 1)
            return f"{left} {expr.op} {right}"
        # ^, right-associative: a power is wrapped as the base, not as the
        # exponent, nor is a negated exponent
        return f"{_wrap(expr.left, binds + 1)}^{_wrap(expr.right, _UNARY)}"
    if isinstance(expr, Call):
        return f"{expr.name}({to_text(expr.arg)})"
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------

class ProfileFunction(Record):
    """A scalar profile with exact first and second derivatives on a
    closed interval.  Evaluation outside [t_min, t_max] is a hard fault.
    Plain data: each call walks its tree (``SurfaceFamily`` lowers the
    trees where they run per step or per row)."""

    value: Expr
    d1: Expr
    d2: Expr
    t_min: float
    t_max: float

    def __post_init__(self):
        if not (math.isfinite(self.t_min) and math.isfinite(self.t_max)):
            raise ValueError("profile domain must have finite endpoints")
        if not self.t_min < self.t_max:
            raise ValueError("profile domain must satisfy t_min < t_max")

    @classmethod
    def from_text(cls, text: str, t_min: float, t_max: float) -> "ProfileFunction":
        value = parse(text)
        d1 = differentiate(value)
        d2 = differentiate(d1)
        return cls(value, d1, d2, float(t_min), float(t_max))

    def _outside(self, t: float) -> DomainError:
        return DomainError(
            f"t={t!r} outside profile domain [{self.t_min}, {self.t_max}]")

    def check(self, t: float):
        """Raise ``DomainError`` unless t_min <= t <= t_max."""
        if not self.t_min <= t <= self.t_max:
            raise self._outside(t)

    def evaluate(self, t: float) -> float:
        self.check(t)
        return _evaluate(self.value, t)

    def derivative(self, t: float) -> float:
        self.check(t)
        return _evaluate(self.d1, t)

    def second_derivative(self, t: float) -> float:
        self.check(t)
        return _evaluate(self.d2, t)
