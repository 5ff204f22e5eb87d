"""Parsing of rational map descriptions.

Two input shapes are accepted:

    z^2 - 29/16            an affine rational function of z over Q
    [X^2+Y^2 : 2*X*Y]      an explicit homogeneous pair in X, Y

Operators are + - * / ^ with integer exponents ('**' is tolerated as '^');
multiplication is always explicit.  The affine form may be any rational
expression; numerator and denominator sharing a polynomial factor are
reduced before homogenization.  Homogeneous sides must be polynomials of
one common degree (division by constants is allowed).

The text is cut into tokens, then read once: each grammar rule evaluates
what it reads and builds no parse tree, so faults are reported in reading
order (in ``z/0 +`` the zero divisor, not the missing operand after it).

All arithmetic is over Z, in one representation: an expression evaluates
to a pair (num, den) of polynomials in Z[X, Y], with z read as X/Y.  A
homogeneous side keeps a constant den.  An affine expression is read at
Y = 1 as a numerator and a denominator in Z[z], whose common factor is the
primitive gcd from pseudo-remainders, divided out exactly.  Powers are
taken by square-and-multiply.
"""

from __future__ import annotations

import math
import re

from .ratmap import DegenerateMapError, HomogPair

# every character outside whitespace starts a token; one no rule reads is "bad"
_TOKEN_RE = re.compile(
    r"(?P<int>\d+)|(?P<name>[A-Za-z]+)|(?P<op>\*\*|[-+*/^()\[\]:])|(?P<bad>\S)"
)


class MapSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value, at = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise MapSyntaxError(f"unexpected character {value!r}", at)
        if kind == "int":
            try:
                value = int(value)
            except ValueError:  # longer than the interpreter's int-string limit
                raise MapSyntaxError(f"integer literal of {len(value)} digits "
                                     "is too long", at) from None
        elif value == "**":
            value = "^"
        tokens.append((kind, value, at))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over:  expr := term (('+'|'-') term)*
                                term := factor (('*'|'/') factor)*
                                factor := '-' factor | atom ('^' int)*
                                atom := int | variable | '(' expr ')'

    Each rule returns the value of what it read, as (num, den): polynomials in
    X, Y with den != 0.  On a homogeneous side den stays a constant: dividing
    by anything else raises DegenerateMapError.
    """

    def __init__(self, text: str, homogeneous: bool):
        self.tokens = _tokenize(text)
        self.homogeneous = homogeneous
        self.variables = ("X", "Y") if homogeneous else ("z",)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def accept_op(self, ops: str):
        """The next token's operator if it is one of the characters of ops, consumed."""
        kind, value, _ = self.tokens[self.i]
        if kind == "op" and value in ops:
            self.i += 1
            return value
        return None

    def expect_op(self, op):
        if not self.accept_op(op):
            raise MapSyntaxError(f"expected {op!r}", self.peek()[2])

    def expect_end(self, what: str):
        if self.peek()[0] != "end":
            raise MapSyntaxError(f"trailing input after the {what}", self.peek()[2])

    def expr(self):
        n, d = self.term()
        while op := self.accept_op("+-"):
            n2, d2 = self.term()
            if op == "-":
                n2 = {k: -c for k, c in n2.items()}
            if d == d2:
                n = _bi_add(n, n2)
            else:
                n, d = _bi_add(_bi_mul(n, d2), _bi_mul(n2, d)), _bi_mul(d, d2)
        return n, d

    def term(self):
        n, d = self.factor()
        while op := self.accept_op("*/"):
            n2, d2 = self.factor()
            if op == "/":
                if not n2:
                    raise DegenerateMapError("division by an identically-zero expression")
                if self.homogeneous and set(n2) != {(0, 0)}:
                    raise DegenerateMapError("homogeneous sides may only be divided by constants")
                n2, d2 = d2, n2
            n, d = _bi_mul(n, n2), _bi_mul(d, d2)
        return n, d

    def factor(self):
        if self.accept_op("-"):
            n, d = self.factor()
            return {k: -c for k, c in n.items()}, d
        n, d = self.atom()
        while self.accept_op("^"):
            kind, exp, at = self.peek()
            if kind != "int":
                raise MapSyntaxError("exponents must be nonnegative integers", at)
            self.i += 1
            n, d = _power(n, exp), _power(d, exp)
        return n, d

    def atom(self):
        kind, value, at = self.peek()
        if self.accept_op("("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "int":
            self.i += 1
            return ({(0, 0): value} if value else {}), _ONE
        if kind == "name":
            if value not in self.variables:
                allowed = " or ".join(self.variables)
                raise MapSyntaxError(f"unknown variable {value!r}, expected {allowed}", at)
            self.i += 1
            return _VARIABLES[value]
        raise MapSyntaxError("expected a number, variable, or parenthesis", at)


# --- univariate polynomials over Z, coefficient lists by ascending degree ---

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p):
    """p over the gcd of its coefficients, with a positive leading coefficient."""
    g = math.gcd(*p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _poly_gcd(p, q):
    """The primitive gcd of integer polynomials p and q != 0, by a primitive PRS."""
    if not p:
        return _primitive(q)
    a, b = _primitive(p), _primitive(q)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        # pseudo-remainder of a by b: b's leading coefficient scales a before each step
        lead = b[-1]
        while len(a) >= len(b):
            k = len(a) - len(b)
            top = a[-1]
            a = [c * lead for c in a]
            for i, c in enumerate(b):
                a[k + i] -= top * c
            _poly_trim(a)
        if not a:
            return b
        a, b = b, _primitive(a)
    return [1]


def _poly_exact_div(p, q):
    """p / q for an integer polynomial q that divides p exactly."""
    rem = list(p)
    quot = [0] * (len(p) - len(q) + 1)
    lead = q[-1]
    for k in range(len(quot) - 1, -1, -1):
        factor = rem[k + len(q) - 1] // lead
        quot[k] = factor
        if factor:
            for i, c in enumerate(q):
                rem[k + i] -= factor * c
    return quot


# --- polynomials in X, Y as {(deg_X, deg_Y): coefficient} ---

_ONE = {(0, 0): 1}

# each variable as (num, den), z as X/Y; these values are shared, so no helper
# may change the dicts it is given
_VARIABLES = {"z": ({(1, 0): 1}, {(0, 1): 1}), "X": ({(1, 0): 1}, _ONE), "Y": ({(0, 1): 1}, _ONE)}


def _bi_add(p, q):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _bi_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _power(base, exp: int):
    """base^exp by square-and-multiply, refused by ``_at_y1`` before the first
    squaring if no coefficient list could hold its degree."""
    if base:
        _at_y1({}, exp * max(i + j for i, j in base))
    result = _ONE
    while exp:
        if exp & 1:
            result = _bi_mul(result, base)
        exp >>= 1
        if exp:
            base = _bi_mul(base, base)
    return result


def _at_y1(form, degree=-1):
    """The coefficient list, by ascending degree in z, of a binary form at X = z, Y = 1,
    padded with zeros to at least degree + 1 entries."""
    degree = max(degree, max((i for i, _ in form), default=-1))
    try:
        out = [0] * (degree + 1)
    except (MemoryError, OverflowError):  # from 2^62 entries on, before any allocation
        raise DegenerateMapError(f"a form of degree {degree} has too many coefficients "
                                 "to store") from None
    for (i, _), c in form.items():
        out[i] += c
    return out


def _side_degree(poly: dict, side: str) -> int:
    """The degree of a homogeneous side; DegenerateMapError if it is zero or not homogeneous."""
    if not poly:
        raise DegenerateMapError(f"{side} side is identically zero")
    degrees = {i + j for i, j in poly}
    if len(degrees) != 1:
        raise DegenerateMapError(f"{side} side is not homogeneous")
    return degrees.pop()


def parse_map(text: str) -> HomogPair:
    """Parse a map description into a normalized homogeneous pair."""
    stripped = text.strip()
    if not stripped:
        raise MapSyntaxError("empty map description", 0)
    homogeneous = stripped.startswith("[")
    parser = _Parser(text, homogeneous)
    if homogeneous:
        parser.expect_op("[")
        f, f_den = parser.expr()
        parser.expect_op(":")
        g, g_den = parser.expr()
        parser.expect_op("]")
        parser.expect_end("pair")
        d = _side_degree(f, "first")
        if d != (d2 := _side_degree(g, "second")):
            raise DegenerateMapError(f"sides have different degrees {d} and {d2}")
        # each side's constant den scales the other side
        num = [c * g_den[(0, 0)] for c in _at_y1(f, d)]
        den = [c * f_den[(0, 0)] for c in _at_y1(g, d)]
    else:
        num, den = map(_at_y1, parser.expr())
        parser.expect_end("expression")
        common = _poly_gcd(num, den)
        if len(common) > 1:
            num, den = _poly_exact_div(num, common), _poly_exact_div(den, common)
        d = max(len(num), len(den)) - 1
        if d < 1:
            raise DegenerateMapError("constant expressions do not define a map")
    # a[i] is the X^(d-i) Y^i coefficient, i.e. the z^(d-i) coefficient
    a, b = ([0] * (d + 1 - len(p)) + p[::-1] for p in (num, den))
    return HomogPair(a, b, stripped)
