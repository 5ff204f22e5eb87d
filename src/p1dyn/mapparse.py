"""Parsing of rational map descriptions.

Two input shapes are accepted:

    z^2 - 29/16            an affine rational function of z over Q
    [X^2+Y^2 : 2*X*Y]      an explicit homogeneous pair in X, Y

Operators are + - * / ^ with integer exponents ('**' is tolerated as '^');
multiplication is always explicit.  The affine form may be any rational
expression; numerator and denominator sharing a polynomial factor are
reduced before homogenization.  Homogeneous sides must be polynomials of
one common degree (division by constants is allowed).

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

from .ratmap import DegenerateMapError, HomogPair, make_pair

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z]+)|(?P<op>\*\*|[-+*/^()\[\]:]))"
)


class MapSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise MapSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup == "int":
            try:
                value = int(m.group("int"))
            except ValueError:  # longer than the interpreter's int-string limit
                raise MapSyntaxError(f"integer literal of {len(m.group('int'))} digits "
                                     "is too long", m.start("int")) from None
            tokens.append(("int", value, m.start("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op, m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over:  expr := term (('+'|'-') term)*
                                term := factor (('*'|'/') factor)*
                                factor := '-' factor | atom ('^' int)*
                                atom := int | variable | '(' expr ')'
    """

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.tokens = _tokenize(text)
        self.variables = variables
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def accept(self, kind, value=None):
        tok = self.tokens[self.i]
        if tok[0] == kind and (value is None or tok[1] == value):
            self.i += 1
            return tok
        return None

    def expect_op(self, op):
        if not self.accept("op", op):
            tok = self.peek()
            raise MapSyntaxError(f"expected {op!r}", tok[2])

    def expr(self):
        node = self.term()
        while True:
            if self.accept("op", "+"):
                node = ("add", node, self.term())
            elif self.accept("op", "-"):
                node = ("sub", node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            if self.accept("op", "*"):
                node = ("mul", node, self.factor())
            elif self.accept("op", "/"):
                node = ("div", node, self.factor())
            else:
                return node

    def factor(self):
        if self.accept("op", "-"):
            return ("neg", self.factor())
        node = self.atom()
        while self.accept("op", "^"):
            tok = self.peek()
            exp = self.accept("int")
            if exp is None:
                raise MapSyntaxError("exponents must be nonnegative integers", tok[2])
            node = ("pow", node, exp[1])
        return node

    def atom(self):
        tok = self.peek()
        if self.accept("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        if tok[0] == "int":
            self.i += 1
            return ("const", tok[1])
        if tok[0] == "name":
            if tok[1] not in self.variables:
                allowed = " or ".join(self.variables)
                raise MapSyntaxError(f"unknown variable {tok[1]!r}, expected {allowed}", tok[2])
            self.i += 1
            return ("var", tok[1])
        raise MapSyntaxError("expected a number, variable, or parenthesis", tok[2])


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
    """base^exp by square-and-multiply."""
    result = _ONE
    while exp:
        if exp & 1:
            result = _bi_mul(result, base)
        exp >>= 1
        if exp:
            base = _bi_mul(base, base)
    return result


def _evaluate(node, homogeneous: bool):
    """Evaluate an AST to (num, den), polynomials in X, Y with den != 0.

    On a homogeneous side den stays a constant: dividing by anything else
    raises DegenerateMapError.
    """
    kind = node[0]
    if kind == "const":
        return ({(0, 0): node[1]} if node[1] else {}), _ONE
    if kind == "var":
        return _VARIABLES[node[1]]
    if kind == "neg":
        n, d = _evaluate(node[1], homogeneous)
        return {k: -c for k, c in n.items()}, d
    if kind == "pow":
        n, d = _evaluate(node[1], homogeneous)
        return _power(n, node[2]), _power(d, node[2])
    n1, d1 = _evaluate(node[1], homogeneous)
    n2, d2 = _evaluate(node[2], homogeneous)
    if kind == "sub":
        n2 = {k: -c for k, c in n2.items()}
    if kind in ("add", "sub"):
        if d1 == d2:
            return _bi_add(n1, n2), d1
        return _bi_add(_bi_mul(n1, d2), _bi_mul(n2, d1)), _bi_mul(d1, d2)
    if kind == "mul":
        return _bi_mul(n1, n2), _bi_mul(d1, d2)
    if kind == "div":
        if not n2:
            raise DegenerateMapError("division by an identically-zero expression")
        if homogeneous and set(n2) != {(0, 0)}:
            raise DegenerateMapError("homogeneous sides may only be divided by constants")
        return _bi_mul(n1, d2), _bi_mul(d1, n2)
    raise AssertionError(kind)


def _at_y1(form):
    """The coefficient list, by ascending degree in z, of a binary form at X = z, Y = 1."""
    out = [0] * (max((i for i, _ in form), default=-1) + 1)
    for (i, _), c in form.items():
        out[i] += c
    return out


def _homog_side_coeffs(poly: dict, side: str):
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
    if stripped.lstrip().startswith("["):
        parser = _Parser(text, ("X", "Y"))
        parser.expect_op("[")
        f_ast = parser.expr()
        parser.expect_op(":")
        g_ast = parser.expr()
        parser.expect_op("]")
        if parser.peek()[0] != "end":
            raise MapSyntaxError("trailing input after the pair", parser.peek()[2])
        f_poly, f_den = _evaluate(f_ast, True)
        g_poly, g_den = _evaluate(g_ast, True)
        d1 = _homog_side_coeffs(f_poly, "first")
        d2 = _homog_side_coeffs(g_poly, "second")
        if d1 != d2:
            raise DegenerateMapError(f"sides have different degrees {d1} and {d2}")
        f_den, g_den = f_den[(0, 0)], g_den[(0, 0)]
        a = [f_poly.get((d1 - i, i), 0) * g_den for i in range(d1 + 1)]
        b = [g_poly.get((d1 - i, i), 0) * f_den for i in range(d1 + 1)]
        return make_pair(a, b, stripped)
    parser = _Parser(text, ("z",))
    ast = parser.expr()
    if parser.peek()[0] != "end":
        raise MapSyntaxError("trailing input after the expression", parser.peek()[2])
    num, den = (_at_y1(form) for form in _evaluate(ast, False))
    common = _poly_gcd(num, den)
    if len(common) > 1:
        num = _poly_exact_div(num, common)
        den = _poly_exact_div(den, common)
    d = max(len(num), len(den)) - 1
    if d < 1:
        raise DegenerateMapError("constant expressions do not define a map")
    num = num + [0] * (d + 1 - len(num))
    den = den + [0] * (d + 1 - len(den))
    # a[i] is the X^(d-i) Y^i coefficient, i.e. the z^(d-i) coefficient
    a = [num[d - i] for i in range(d + 1)]
    b = [den[d - i] for i in range(d + 1)]
    return make_pair(a, b, stripped)
