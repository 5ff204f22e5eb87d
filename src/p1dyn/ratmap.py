"""Endomorphisms of the projective line as content-normalized binary forms.

A map of degree d is a pair (F, G) of integer binary forms of formal degree
d, stored as coefficient tuples a, b with a[i] the coefficient of
X^(d-i) Y^i.  The pair is normalized so that the gcd of all 2d+2
coefficients is 1 and the first nonzero coefficient is positive; a nonzero
resultant is what makes it an actual endomorphism.  HomogPair puts any input
in this form and refuses Res = 0.
"""

from __future__ import annotations

import math

from .intarith import ArithmeticInputError, _iroot, factorize, is_prime
from .projline import ProjPoint
from .record import Record, _set


class DegenerateMapError(ValueError):
    """The input does not define an endomorphism of the line."""


class HomogPair(Record):
    """The forms' coefficients, compared, and three fields that are not: ``source``,
    the text the map was read from, ``resultant``, Res, and ``threshold``, the escape
    threshold T (None when d < 2).  Built from two int vectors of one length
    d + 1 >= 2, their content divided out and the first nonzero coefficient made
    positive; Res = 0 is refused.  A polynomial pair takes Res = (a_0*b_d)^d in
    closed form, and T only on its first read (``escape_threshold``), since the
    sieve settles most polynomial pairs before any walk reads T; any other pair
    takes Res and T from its one elimination (``_adjugate_rows``) when it is built.
    """

    __slots__ = ("degree", "a", "b", "source", "resultant", "_threshold")
    _compared = ("degree", "a", "b")

    def __init__(self, a, b, source: str = ""):
        a, b = tuple(a), tuple(b)
        if len(a) != len(b):
            raise ArithmeticInputError("coefficient vectors must have equal length")
        degree = len(a) - 1
        if degree < 1:
            raise DegenerateMapError("degree must be at least 1")
        if not any(a) or not any(b):
            raise DegenerateMapError("one side of the pair is identically zero")
        g = math.gcd(*a, *b)
        if next(c for c in a + b if c) < 0:
            g = -g
        if g != 1:
            a, b = tuple(c // g for c in a), tuple(c // g for c in b)
        _set(self, "degree", degree)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "source", source)
        threshold = None
        if self.polynomial:  # S is triangular: Res is its diagonal's product
            res = (a[0] * b[-1]) ** degree
        else:
            res, rows = _adjugate_rows(self)
            if res and degree >= 2:
                threshold = _threshold_of(rows, degree)
        if res == 0:
            raise DegenerateMapError("the two forms share a projective root (resultant 0)")
        _set(self, "resultant", res)
        _set(self, "_threshold", threshold)

    def __reduce__(self):
        # only the inputs: __init__ derives Res again, and T is derived on demand
        return HomogPair, (self.a, self.b, self.source)

    @property
    def threshold(self) -> int | None:
        """T, derived on the first read (``escape_threshold``); None when d < 2."""
        return escape_threshold(self) if self.degree >= 2 else None

    @property
    def polynomial(self) -> bool:
        """G = b_d*Y^d: the map is a polynomial in z = X/Y (a_0 != 0, as Res != 0)."""
        return not any(self.b[:-1])

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


def _adjugate_rows(pair: HomogPair) -> tuple[int, list[list[int]]]:
    """Res = det(S) and rows 0 and 2d-1 of adj(S), S the Sylvester matrix.

    adj(S) = adj(S^T)^T, so row i of adj(S) solves S^T y = Res*e_i.  A
    polynomial pair has S upper triangular with diagonal a_0 (d times), then
    b_d (d times): Res = a_0^d*b_d^d, row 2d-1 is (0, ..., 0, a_0^d*b_d^(d-1)),
    and row 0 comes from one forward substitution over the nonzero a_t,
    y_k = (Res*[k = 0] - sum of a_t*y_(k-t) over 0 <= k-t < d) / (a_0 if k < d
    else b_d), each division exact because y is integral: O(d*k) operations
    for k nonzero coefficients, and no matrix.  a_0 != 0 here, since a_0 = 0
    makes [1 : 0] a common root, Res = 0, which HomogPair refuses from the
    closed form before any pair reaches this solve.  Any other pair
    eliminates S^T augmented by e_0 and e_(2d-1) (``_eliminate``).
    """
    d = pair.degree
    if not pair.polynomial:
        augmented = [list(column) + [int(k == 0), int(k == 2 * d - 1)]
                     for k, column in enumerate(zip(*_sylvester(pair)))]
        return _eliminate(augmented)
    a, lead, tail, res = pair.a, pair.a[0], pair.b[-1], pair.resultant
    terms = [(t, c) for t, c in enumerate(a) if t and c]
    y = [res // lead]
    for k in range(1, 2 * d):
        total = 0
        for t, c in terms:
            if t > k:
                break
            if k - t < d:
                total -= c * y[k - t]
        y.append(total // (lead if k < d else tail))
    return res, [y, [0] * (2 * d - 1) + [res // tail]]


def _threshold_of(rows: list[list[int]], d: int) -> int:
    """T from rows 0 and 2d-1 of adj(S) (``escape_threshold``)."""
    content = math.gcd(*rows[0], *rows[1])
    return _iroot(max(sum(map(abs, row)) for row in rows) // content, d - 1)


def escape_threshold(pair: HomogPair) -> int:
    """A height T such that every point of height H > T has an image of height > H.

    Rows 0 and 2d-1 of adj(S), S the Sylvester matrix, over their contents c_i,
    give forms with g1*F + g2*G = R_1*X^(2d-1) and h1*F + h2*G = R_2*Y^(2d-1),
    R_i = Res/c_i.  Both rows come with Res (``_adjugate_rows``): a forward
    substitution through the triangular S^T of a polynomial pair, else one
    elimination of S^T augmented by the unit columns e_0 and e_(2d-1).
    With G_i the sum of |coefficients| of row i and L = lcm(R_1, R_2), which
    gcd(F, G) divides at a coprime point, an image has height >= |R_i|*H^d/(G_i*L)
    for i the larger coordinate; so T is the integer (d-1)-th root of
    max_i (L/R_i)*G_i = max_i S_i/gcd(c_1, c_2), S_i the sum of row i's |cofactors|.
    Heights above T grow forever, so no point above T is preperiodic.  A
    non-polynomial pair gets T with Res, when it is built; a polynomial pair
    gets it here, on the first read, and keeps it, so its rows are solved at
    most once and never for a pair that no walk reads T of.
    """
    if pair.degree < 2:
        raise ArithmeticInputError("escape threshold needs a map of degree at least 2")
    if pair._threshold is None:
        _set(pair, "_threshold", _threshold_of(_adjugate_rows(pair)[1], pair.degree))
    return pair._threshold


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
    res = pair.resultant
    bad = tuple(sorted(factorize(res))) if abs(res) != 1 else ()
    return ReductionProfile(res, bad, PlaceSet(frozenset(bad)))


def good_reduction(pair: HomogPair, p: int) -> bool:
    if not is_prime(p):
        raise ArithmeticInputError(f"{p} is not prime")
    return pair.resultant % p != 0


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


def wronskian(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of F_X G_Y - F_Y G_X, a binary form of degree 2d-2, for any
    forms F, G of one degree d (Res = 0 included).

    For i < j, the terms a_i X^(d-i) Y^i of F and b_j X^(d-j) Y^j of G, taken
    with the swapped pair a_j, b_i, add d (j - i) (a_i b_j - a_j b_i) to the
    coefficient of X^(2d-1-i-j) Y^(i+j-1); the pairs i = j cancel.
    """
    d = len(a) - 1
    out = [0] * (2 * d - 1)
    support = [i for i in range(d + 1) if a[i] or b[i]]  # a minor needs both columns nonzero
    for n, i in enumerate(support):
        for j in support[n + 1:]:
            minor = a[i] * b[j] - a[j] * b[i]
            if minor:
                out[i + j - 1] += d * (j - i) * minor
    return tuple(out)
