"""Endomorphisms of the projective line as content-normalized binary forms.

A map of degree d is a pair (F, G) of integer binary forms of formal degree
d, stored as coefficient tuples a, b with a[i] the coefficient of
X^(d-i) Y^i.  The pair is normalized so that the gcd of all 2d+2
coefficients is 1 and the first nonzero coefficient is positive; a nonzero
resultant is what makes it an actual endomorphism.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .intarith import ArithmeticInputError, factorize, is_prime
from .projline import ProjPoint
from .record import Record, _set


class DegenerateMapError(ValueError):
    """The input does not define an endomorphism of the line."""


class HomogPair(Record):
    """The forms' coefficients; ``source``, the text the map was read from, is not compared."""

    __slots__ = ("degree", "a", "b", "source")
    _compared = ("degree", "a", "b")

    def __init__(self, degree: int, a: tuple[int, ...], b: tuple[int, ...], source: str = ""):
        if degree < 1:
            raise DegenerateMapError("degree must be at least 1")
        if len(a) != degree + 1 or len(b) != degree + 1:
            raise ArithmeticInputError("coefficient vectors must have length degree+1")
        coeffs = a + b
        if all(c == 0 for c in a) or all(c == 0 for c in b):
            raise DegenerateMapError("one side of the pair is identically zero")
        g = 0
        for c in coeffs:
            g = math.gcd(g, c)
        if g != 1:
            raise ArithmeticInputError("pair is not content-normalized")
        first = next(c for c in coeffs if c != 0)
        if first < 0:
            raise ArithmeticInputError("pair is not sign-normalized")
        _set(self, "degree", degree)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "source", source)

    @property
    def degree_below_2(self) -> bool:
        return self.degree < 2

    def __str__(self):
        return self.source or f"[{_form_str(self.a, self.degree)}:{_form_str(self.b, self.degree)}]"


def _form_str(coeffs, d):
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = []
        if d - i > 0:
            mono.append("X" if d - i == 1 else f"X^{d - i}")
        if i > 0:
            mono.append("Y" if i == 1 else f"Y^{i}")
        body = "*".join(mono)
        if body and abs(c) == 1:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(f"{c}" + (f"*{body}" if body else ""))
    joined = "+".join(parts).replace("+-", "-")
    return joined or "0"


def make_pair(a_coeffs, b_coeffs, source: str = "") -> HomogPair:
    """Normalize integer or Fraction coefficient vectors into a HomogPair.

    Scales both sides by the common denominator, divides out the content,
    fixes the sign, and rejects pairs with resultant zero.
    """
    a, b = list(a_coeffs), list(b_coeffs)
    if len(a) != len(b) or not a:
        raise ArithmeticInputError("coefficient vectors must have equal positive length")
    scale = 1
    for c in a + b:
        scale = math.lcm(scale, c.denominator)
    ai = [c.numerator * (scale // c.denominator) for c in a]
    bi = [c.numerator * (scale // c.denominator) for c in b]
    g = math.gcd(*ai, *bi)
    if g == 0:
        raise DegenerateMapError("both sides are identically zero")
    first = next(c for c in ai + bi if c != 0)
    if first < 0:
        g = -g
    pair = HomogPair(len(a) - 1, tuple(c // g for c in ai), tuple(c // g for c in bi), source)
    if resultant(pair) == 0:
        raise DegenerateMapError("the two forms share a projective root (resultant 0)")
    return pair


def _eliminate(m: list[list[int]]) -> tuple[int, list[list[int]]]:
    """det(A) and the columns of adj(A)*B for an n x (n+k) integer matrix [A | B].

    One fraction-free Bareiss pass (Bareiss, Math. Comp. 22, 1968) makes A
    upper triangular with last pivot D = +-det(A); back-substitution then
    solves A x = D b for each column b of B, every division exact because
    D A^-1 b = +-adj(A) b is integral.  A singular A gives (0, []).
    """
    n, width = len(m), len(m[0])
    sign, prev = 1, 1
    for k in range(n):
        row_k = m[k]
        if row_k[k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], row_k
                    row_k = m[k]
                    sign = -sign
                    break
            else:
                return 0, []
        pivot = row_k[k]
        for row in m[k + 1:]:
            lead = row[k]
            if lead:
                for j in range(k + 1, width):
                    row[j] = (row[j] * pivot - lead * row_k[j]) // prev
            elif pivot != prev:  # a zero lead only rescales the row; common in sparse S
                for j in range(k + 1, width):
                    row[j] = row[j] * pivot // prev
        prev = pivot
    columns = []
    for c in range(n, width):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            total = prev * row[c]
            for j in range(i + 1, n):
                total -= row[j] * x[j]
            x[i] = total // row[i]
        columns.append([sign * v for v in x])
    return sign * prev, columns


def _sylvester(pair: HomogPair) -> list[list[int]]:
    """Rows X^(d-1-i) Y^i * F, then * G, in the basis X^(2d-1-k) Y^k (column k)."""
    d = pair.degree
    rows = []
    for form in (pair.a, pair.b):
        for i in range(d):
            row = [0] * (2 * d)
            row[i : i + d + 1] = form
            rows.append(row)
    return rows


def _iroot(n: int, k: int) -> int:
    """The largest r with r^k <= n, for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


@lru_cache(maxsize=None)
def _certificate(pair: HomogPair) -> tuple[int, int | None]:
    """(Res, T) from one elimination of S^T augmented by e_0 and e_(2d-1).

    S is the Sylvester matrix; det(S^T) = Res, and the two solved columns are
    rows 0 and 2d-1 of adj(S), which ``escape_threshold`` turns into T.  T is
    None when d < 2 or Res = 0.  Only the two integers are kept.
    """
    n = 2 * pair.degree
    augmented = [list(column) + [int(k == 0), int(k == n - 1)]
                 for k, column in enumerate(zip(*_sylvester(pair)))]
    res, rows = _eliminate(augmented)
    if pair.degree < 2 or res == 0:
        return res, None
    content = math.gcd(*rows[0], *rows[1])
    return res, _iroot(max(sum(map(abs, row)) for row in rows) // content, pair.degree - 1)


def resultant(pair: HomogPair) -> int:
    """Determinant of the 2d x 2d Sylvester matrix S of the pair.

    Read from the one elimination that also gives ``escape_threshold``.
    """
    return _certificate(pair)[0]


def escape_threshold(pair: HomogPair) -> int:
    """A height T such that every point of height H > T has an image of height > H.

    Rows 0 and 2d-1 of adj(S), S the Sylvester matrix, over their contents c_i,
    give forms with g1*F + g2*G = R_1*X^(2d-1) and h1*F + h2*G = R_2*Y^(2d-1),
    R_i = Res/c_i.  Both rows come from the elimination that gives Res: S^T
    augmented by the unit columns e_0 and e_(2d-1), solved for
    adj(S^T) e_i = (row i of adj(S)) (``_certificate``).
    With G_i the sum of |coefficients| of row i and L = lcm(R_1, R_2), which
    gcd(F, G) divides at a coprime point, an image has height >= |R_i|*H^d/(G_i*L)
    for i the larger coordinate; so T is the integer (d-1)-th root of
    max_i (L/R_i)*G_i = max_i S_i/gcd(c_1, c_2), S_i the sum of row i's |cofactors|.
    Heights above T grow forever, so no point above T is preperiodic.
    """
    if pair.degree < 2:
        raise ArithmeticInputError("escape threshold needs a map of degree at least 2")
    res, threshold = _certificate(pair)
    if res == 0:
        raise DegenerateMapError("the two forms share a projective root (resultant 0)")
    return threshold


class PlaceSet(Record):
    """A finite set of primes together with the archimedean place."""

    __slots__ = ("finite",)

    def __init__(self, finite: frozenset[int]):
        _set(self, "finite", finite)

    @property
    def size(self) -> int:
        return 1 + len(self.finite)

    def extended(self, primes) -> "PlaceSet":
        extra = set(self.finite)
        for p in primes:
            if not is_prime(p):
                raise ArithmeticInputError(f"{p} is not prime")
            extra.add(p)
        return PlaceSet(frozenset(extra))

    def __str__(self):
        return "{" + ", ".join(["inf"] + [str(p) for p in sorted(self.finite)]) + "}"


class ReductionProfile(Record):
    __slots__ = ("resultant", "bad_primes", "places")

    def __init__(self, resultant: int, bad_primes: tuple[int, ...], places: PlaceSet):
        _set(self, "resultant", resultant)
        _set(self, "bad_primes", bad_primes)
        _set(self, "places", places)


def reduction_profile(pair: HomogPair) -> ReductionProfile:
    """Bad primes (divisors of the resultant) and the minimal place set."""
    res = resultant(pair)
    bad = tuple(sorted(factorize(res))) if abs(res) != 1 else ()
    return ReductionProfile(res, bad, PlaceSet(frozenset(bad)))


def good_reduction(pair: HomogPair, p: int) -> bool:
    if not is_prime(p):
        raise ArithmeticInputError(f"{p} is not prime")
    return resultant(pair) % p != 0


def step_kernel(a: tuple[int, ...], b: tuple[int, ...]):
    """The action of the forms (F, G) on coprime integer coordinates.

    Returns step(x, y): the canonical coprime coordinates of [F(x,y) : G(x,y)],
    both forms evaluated in one fused Horner pass.  This is the only code that
    applies a pair to a point.
    """
    d = len(a) - 1

    def step(x: int, y: int) -> tuple[int, int]:
        fa, fb, ypow = a[0], b[0], 1
        for i in range(1, d + 1):
            ypow *= y
            fa = fa * x + a[i] * ypow
            fb = fb * x + b[i] * ypow
        g = math.gcd(fa, fb)
        fa //= g
        fb //= g
        if fb < 0 or (fb == 0 and fa < 0):
            fa, fb = -fa, -fb
        return fa, fb

    return step


def evaluate(pair: HomogPair, point: ProjPoint) -> ProjPoint:
    """Image of a canonical point, new in canonical coordinates."""
    return ProjPoint(*step_kernel(pair.a, pair.b)(point.x, point.y))


def _form_derivative_x(coeffs, d):
    return tuple(coeffs[i] * (d - i) for i in range(d))


def _form_derivative_y(coeffs, d):
    return tuple(coeffs[i + 1] * (i + 1) for i in range(d))


def _poly_mul(p, q):
    """The product of two coefficient lists: polynomials in z or binary forms alike."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        if c:
            for j, e in enumerate(q):
                out[i + j] += c * e
    return out


def wronskian(pair: HomogPair) -> tuple[int, ...]:
    """Coefficients of F_X G_Y - F_Y G_X, a binary form of degree 2d-2."""
    d = pair.degree
    fx = _form_derivative_x(pair.a, d)
    fy = _form_derivative_y(pair.a, d)
    gx = _form_derivative_x(pair.b, d)
    gy = _form_derivative_y(pair.b, d)
    lhs = _poly_mul(fx, gy)
    rhs = _poly_mul(fy, gx)
    return tuple(l - r for l, r in zip(lhs, rhs))
