"""Exact representation and rigorous comparison of astronomically large counts.

A magnitude is a nonnegative sum of terms c * b1^k1 * ... * e^q, each held as
(c, powers, q): c a positive int, powers a sorted tuple of (base, k) with
base^k an integer past EXACT_DIGIT_CEILING decimal digits, and q >= 0 an int,
or a Fraction only when it is not integral, so the bounds' exponents stay in
int arithmetic.  A base is no perfect power (4^k is kept as 2^(2k)).  The
terms are sorted, those of one (powers, q) merged, and c's factors of a
power's base folded into that power, so 2 * 2^k is 2^(k+1) and equal
formulas give equal term lists; zero is the empty sum.  power
writes out every integer power within the ceiling, so by
Lindemann-Weierstrass a magnitude is an integer that can be materialized
exactly when it is one term with no power and q = 0.  prod_of multiplies
two term lists out pair by pair, but an integer factor only scales the
coefficients: the keys (powers, q) and their order stay, so no merge is
needed unless a coefficient beside a power may fold.

compare decides exact values and zero first, then integer brackets
lo <= log2(value) <= hi from the terms, rounded outward: c's bit length, a
power's base bracket times k, q / ln 2 over the far end of ln 2 at width
144, and for n terms the maxima of the ends plus ceil(log2 n) on top.  The
library's bounds lie thousands of bits apart, so these decide max_of and
verify.  Next m1 - m2 is taken term by term: shared terms cancel, and one
sign among the coefficients left is the answer.  Otherwise the positive
part is compared with the negative part on intervals around natural
logarithms with integer endpoints at scale 2^-(prec+16), doubling prec from
128 to 8192 until they separate; digit_count climbs the same ladder.  What
cannot be decided, such as e^(30^15) + 1 against e^(30^15 + 2^-9000),
raises IndistinguishableError.

Every endpoint is rounded outward, so it is a true bound.  ln(n) comes from
the atanh series ln(n) = e*ln(2) + 2*atanh((n - 2^e)/(n + 2^e)) in fixed
point; a term adds those of c and its powers to q.  A sum's lower end is
m + ln(1 + sum of e^(lo_i - m)) with m the largest lower end, its upper end
the same from the upper ends, and e^t comes from a Taylor series after
taking out a power of two, so every interval narrows as the precision grows.
A term of a sum whose log2 bracket ends width + 2 bits or more below the
largest lower end is buried: it is below 2^-(width+2) of the top term, so
it gets no interval of its own and adds one unit to the upper sum, a true
bound, and none to the lower.  The series of such a term, an exact tail
thousands of bits under an e^q head, could not move a digit count.
"""

import enum
from fractions import Fraction
from functools import lru_cache

from .intarith import _least_root, _strip, int_digits
from .record import Record

EXACT_DIGIT_CEILING = 10**6
_GUARD_BITS = 16
# the one ladder of working widths compare and digit_count climb: prec 128, doubling
# to the precision ceiling, 8192
_WIDTHS = tuple((128 << k) + _GUARD_BITS for k in range(7))


class Comparison(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class IndistinguishableError(ArithmeticError):
    """Two magnitudes could not be separated at the precision ceiling."""


class MagnitudeInputError(ValueError):
    pass


class Magnitude(Record):
    """A sum of terms (c, powers, q), each c * prod(base^k) * e^q, in canonical form."""

    __slots__ = ("terms",)

    @property
    def ln(self) -> int | Fraction | None:
        """q for a lone e^q with q > 0; None for any other magnitude."""
        if len(self.terms) == 1 and self.terms[0][:2] == (1, ()):
            return self.terms[0][2] or None  # q = 0 is exact(1)
        return None


def _terms(m) -> tuple:
    if not isinstance(m, Magnitude):
        raise MagnitudeInputError(f"not a magnitude: {m!r}")
    return m.terms


def _exponent(q: int | Fraction) -> int | Fraction:
    return q.numerator if q.denominator == 1 else q  # an integral exponent is kept as an int


def _folded(c: int, powers: tuple) -> tuple[int, tuple]:
    """(c, powers) with every factor of a power's base in c moved into that power."""
    out = []
    for base, k in powers:
        c, e = _strip(c, base)
        out.append((base, k + e))
    return c, tuple(out)


def _added(terms) -> tuple:
    """The terms, those of one (powers, q) added into one, sorted."""
    coeffs: dict = {}
    for c, powers, q in terms:
        coeffs[powers, q] = coeffs.get((powers, q), 0) + c
    return tuple(sorted([(c, powers, q) for (powers, q), c in coeffs.items()]))


def _merged(terms) -> Magnitude:
    """The sum of the terms in canonical form: added, then folded.

    Every constructor folds once, on its result: a product that folded after
    each factor would depend on their order where one base is a power of
    another, as 4 * 4^k * 2^k does.
    """
    added = _added(terms)
    for c, powers, q in added:
        if powers and any(c % base == 0 for base, _ in powers):
            # a folded term may meet another of its new (powers, q)
            return _merged([(*_folded(c, p), q) for c, p, q in added])
    return Magnitude(added)


def _digits_at_most(v: int, ceiling: int) -> bool:
    # v has at most approx + 1 digits, as log10 2 < 0.30103: counted only near the boundary
    approx = v.bit_length() * 30103 // 100000
    if approx < ceiling:
        return True
    if approx > ceiling + 2:
        return False
    return int_digits(v) <= ceiling


def exact(v: int) -> Magnitude:
    if type(v) is not int or v < 0:  # a bool is refused, not shown as True
        raise MagnitudeInputError("exact magnitudes are nonnegative integers")
    return Magnitude(((v, (), 0),) if v else ())


def exp_of(q) -> Magnitude:
    if type(q) not in (int, Fraction):
        raise MagnitudeInputError("exponential magnitudes need an int or Fraction exponent")
    if q < 0:
        raise MagnitudeInputError("exponential magnitudes need a nonnegative exponent")
    return Magnitude(((1, (), _exponent(q)),))


def power(base: Magnitude, exponent: int) -> Magnitude:
    """base^exponent; c^exponent is written out when it has at most EXACT_DIGIT_CEILING digits."""
    if type(exponent) is not int or exponent < 0:
        raise MagnitudeInputError("powers need a nonnegative integer exponent")
    terms = _terms(base)
    if exponent == 0:
        return exact(1)
    if exponent == 1 or not terms:
        return base
    if len(terms) > 1:
        raise MagnitudeInputError("powers of a sum of two or more terms are not built")
    c, powers, q = terms[0]
    term = 1, tuple((b, k * exponent) for b, k in powers), q * exponent
    # c^exponent has more than (bit_length - 1) * exponent * log10(2) digits
    if (c.bit_length() - 1) * exponent * 30102 // 100000 <= EXACT_DIGIT_CEILING:
        value = c**exponent
        if _digits_at_most(value, EXACT_DIGIT_CEILING):
            return _merged([_times((value, (), 0), term)])
    # else c^exponent is kept as r^(m*exponent), c = r^m with m largest, so r is c's
    # least root and 4^k, 2^(2k) get one term list
    r, m = _least_root(c)
    return Magnitude((_times((1, ((r, m * exponent),), 0), term),))


def _times(t1: tuple, t2: tuple) -> tuple:
    """The product of two terms."""
    c1, p1, q1 = t1
    c2, p2, q2 = t2
    if p1 and p2:
        merged = dict(p1)
        for b, k in p2:
            merged[b] = merged.get(b, 0) + k
        p1 = tuple(sorted(merged.items()))
    return c1 * c2, p1 or p2, _exponent(q1 + q2)


def _integer(terms: tuple) -> int | None:
    """k when the terms are the lone term of exact(k), k >= 1."""
    if len(terms) == 1 and not terms[0][1] and not terms[0][2]:
        return terms[0][0]
    return None


def prod_of(*parts: Magnitude) -> Magnitude:
    """The product, its terms added after each factor and folded at the end.

    An integer factor k scales the coefficients: each (powers, q) and the
    order of the terms stay, so nothing is added or sorted.  Any other factor
    is multiplied out term by term.
    """
    first, *rest = parts or (exact(1),)
    acc = _terms(first)
    if not rest:
        return first
    for p in rest:
        terms = _terms(p)
        if (k := _integer(terms)) is not None:
            acc = tuple((c * k, powers, q) for c, powers, q in acc)
        elif (k := _integer(acc)) is not None:
            acc = tuple((c * k, powers, q) for c, powers, q in terms)
        else:
            acc = _added([_times(t1, t2) for t1 in acc for t2 in terms])
    if any(powers for _, powers, _ in acc):
        return _merged(acc)  # c's factors of a power's base fold into it
    return Magnitude(acc)


def sum_of(*parts: Magnitude) -> Magnitude:
    return _merged(t for p in parts for t in _terms(p))


def max_of(*parts: Magnitude) -> Magnitude:
    """The part that no other part beats under compare, visited in canonical order.

    A part that compare cannot order against the largest so far raises.
    """
    if not parts:
        raise MagnitudeInputError("max of nothing")
    top, *rest = sorted(parts, key=_terms)
    for p in rest:
        if compare(p, top) is Comparison.GREATER:
            top = p
    return top


# --- fixed-point logarithms with directed rounding -------------------------

def _atanh_fixed(p: int, q: int, width: int) -> tuple[int, int]:
    """Bounds on atanh(p/q) * 2^width for 0 <= p/q <= 1/2."""
    if p == 0:
        return 0, 0
    z_lo = (p << width) // q
    z_hi = z_lo + 1
    sq_lo = (z_lo * z_lo) >> width
    sq_hi = ((z_hi * z_hi) >> width) + 1
    s_lo, s_hi = 0, 0
    p_lo, p_hi = z_lo, z_hi
    j = 0
    while True:
        term_hi = p_hi // (2 * j + 1)
        if term_hi == 0:
            # remaining tail below (4/3) * p_hi / (2j+1) in scaled units
            s_hi += 2
            break
        s_lo += p_lo // (2 * j + 1)
        s_hi += term_hi + 1
        p_lo = (p_lo * sq_lo) >> width
        p_hi = ((p_hi * sq_hi) >> width) + 1
        j += 1
    return s_lo, s_hi


@lru_cache(maxsize=64)
def _ln2_fixed(width: int) -> tuple[int, int]:
    lo, hi = _atanh_fixed(1, 3, width)
    return 2 * lo, 2 * hi


@lru_cache(maxsize=4096)
def _ln_int_fixed(n: int, width: int) -> tuple[int, int]:
    """Bounds on ln(n) * 2^width for n >= 1."""
    if n == 1:
        return 0, 0
    bits = n.bit_length()
    if bits > width + 8:
        # n / 2^shift lies in [head, head + 1), and head >= 2^(width+7), so
        # ln(head + 1) - ln(head) < 1/head <= 2^-(width+7): below one unit, so
        # hi(head) + 1 bounds ln(head + 1) without a second series
        shift = bits - (width + 8)
        lo, hi = _ln_int_fixed(n >> shift, width)
        l2_lo, l2_hi = _ln2_fixed(width)
        return lo + shift * l2_lo, hi + 1 + shift * l2_hi
    e = bits - 1
    at_lo, at_hi = _atanh_fixed(n - (1 << e), n + (1 << e), width)
    l2_lo, l2_hi = _ln2_fixed(width)
    return 2 * at_lo + e * l2_lo, 2 * at_hi + e * l2_hi + 1


def _exp_series(x: int, width: int) -> tuple[int, int]:
    """Bounds on e^(x * 2^-width) * 2^width for 0 <= x <= 2^width (Taylor series)."""
    lo = hi = t_lo = t_hi = 1 << width
    k = 1
    while t_hi > 1:
        t_lo = t_lo * x // (k << width)
        t_hi = -(-t_hi * x // (k << width))
        lo += t_lo
        hi += t_hi
        k += 1
    # each later term is at most half the one before, so the tail is below one ulp
    return lo, hi + 1


def _exp_neg_fixed(t: int, width: int) -> tuple[int, int]:
    """Bounds on e^(-t * 2^-width) * 2^width for t >= 0."""
    if t == 0:
        return 1 << width, 1 << width  # exact, so a lone top end costs no series
    l2_lo, l2_hi = _ln2_fixed(width)
    if t >= (width + 2) * l2_hi:
        return 0, 1  # below 2^-(width+2)
    # e^-x = 2^-k / e^r with r = x - k*ln2 in [0, 1): r is bracketed by the ends of ln2
    k = t // l2_hi
    r_lo, r_hi = t - k * l2_hi, t - k * l2_lo
    square = 1 << (2 * width)
    lo = (square // _exp_series(r_hi, width)[1]) >> k
    hi = -(((-square) // _exp_series(r_lo, width)[0]) >> k)
    return lo, hi


def _ln_exp_sum(ivs: list, buried: int, width: int) -> tuple[int, int]:
    """Bounds on ln(sum of e^(x * 2^-width) + buried terms) * 2^width, each x within its (lo, hi).

    The rule for every sum.  With m the largest end on a side, the sum is
    e^m * (1 + C) for C the sum of e^(x - m) over the other ends, and
    ln(1 + C) = ln(2^width * (1 + C)) - width * ln 2.  Each buried term, below
    2^-(width+2) of e^m, adds one unit to the upper sum and none to the lower.
    """
    l2_lo, l2_hi = _ln2_fixed(width)
    top_lo = max(lo for lo, _ in ivs)
    top_hi = max(hi for _, hi in ivs)
    s_lo, s_hi = 0, buried  # 2^width * (1 + C) on each side, the top end included
    for lo, hi in ivs:
        s_lo += _exp_neg_fixed(top_lo - lo, width)[0]
        s_hi += _exp_neg_fixed(top_hi - hi, width)[1]
    return (top_lo + _ln_int_fixed(s_lo, width)[0] - width * l2_hi,
            top_hi + _ln_int_fixed(s_hi, width)[1] - width * l2_lo)


def _ln_term(term: tuple, width: int) -> tuple[int, int]:
    """Bounds on ln(c * prod(base^k) * e^q) * 2^width."""
    c, powers, q = term
    lo, hi = _ln_int_fixed(c, width)
    for base, k in powers:
        b_lo, b_hi = _ln_int_fixed(base, width)
        lo += k * b_lo
        hi += k * b_hi
    num, den = q.numerator << width, q.denominator
    return lo + num // den, hi - (-num // den)


def _log2_term(term: tuple) -> tuple[int, int]:
    """Integers lo <= log2(c * prod(base^k) * e^q) <= hi, each end rounded outward."""
    c, powers, q = term
    # log2 v lies in [bit_length(v) - 1, bit_length(v - 1)], a point for v = 2^b
    lo, hi = c.bit_length() - 1, (c - 1).bit_length()
    for base, k in powers:
        lo += k * (base.bit_length() - 1)
        hi += k * (base - 1).bit_length()
    if q:
        width = _WIDTHS[0]  # the ladder's first width, whose ln 2 is cached
        l2_lo, l2_hi = _ln2_fixed(width)
        num, den = q.numerator << width, q.denominator  # log2 e^q = q / ln 2
        lo += num // (den * l2_hi)
        hi -= -num // (den * l2_lo)
    return lo, hi


def _log2_bracket(terms: tuple) -> tuple[int, int]:
    """Integers lo <= log2(sum of terms) <= hi for nonempty terms, each end rounded outward."""
    lo, hi = _log2_term(terms[0])
    for term in terms[1:]:
        t_lo, t_hi = _log2_term(term)
        lo, hi = max(lo, t_lo), max(hi, t_hi)
    # n terms sum to at most n times the largest: ceil(log2 n) more bits
    return lo, hi + (len(terms) - 1).bit_length()


def _ln_fixed(terms: tuple, width: int) -> tuple[int, int]:
    """(lo, hi) with lo * 2^-width <= ln(sum of terms) <= hi * 2^-width, for nonempty terms.

    A term whose log2 bracket ends width + 2 or more below the largest lower
    end is buried: below 2^-(width+2) of the largest term, it gets no interval.
    """
    if len(terms) == 1:
        return _ln_term(terms[0], width)
    brackets = [_log2_term(t) for t in terms]
    floor = max(lo for lo, _ in brackets) - width - 2
    ivs = [_ln_term(t, width) for t, (_, hi) in zip(terms, brackets) if hi > floor]
    return _ln_exp_sum(ivs, len(terms) - len(ivs), width)


def ln_interval(m: Magnitude, prec: int) -> tuple[Fraction, Fraction] | None:
    """Rigorous bounds on ln(m) as rationals; None for the zero magnitude."""
    if type(prec) is not int or prec < 1:
        raise MagnitudeInputError("log intervals need a positive integer precision")
    terms = _terms(m)
    if not terms:
        return None
    width = prec + _GUARD_BITS
    iv = _ln_fixed(terms, width)
    return Fraction(iv[0], 1 << width), Fraction(iv[1], 1 << width)


def force_exact(m: Magnitude) -> int | None:
    """The value of m when it is zero or one term with no power and q = 0, within the ceiling."""
    terms = _terms(m)
    if not terms:
        return 0
    c, powers, q = terms[0]
    if len(terms) == 1 and not powers and not q and _digits_at_most(c, EXACT_DIGIT_CEILING):
        return c
    return None


def compare(m1: Magnitude, m2: Magnitude) -> Comparison:
    """Rigorous three-way comparison, in the module docstring's steps; raises if stuck."""
    if m1 == m2:
        return Comparison.EQUAL
    v1 = force_exact(m1)
    v2 = force_exact(m2)
    if v1 is not None and v2 is not None:
        return Comparison.LESS if v1 < v2 else Comparison.GREATER
    if v1 == 0 or v2 == 0:  # zero lies below every other magnitude, and has no log
        return Comparison.LESS if v1 == 0 else Comparison.GREATER
    lo1, hi1 = _log2_bracket(m1.terms)
    lo2, hi2 = _log2_bracket(m2.terms)
    if hi1 < lo2:
        return Comparison.LESS
    if lo1 > hi2:
        return Comparison.GREATER
    diff = {(powers, q): c for c, powers, q in m1.terms}
    for c, powers, q in m2.terms:
        diff[powers, q] = diff.get((powers, q), 0) - c
    above = tuple((c, powers, q) for (powers, q), c in diff.items() if c > 0)
    below = tuple((-c, powers, q) for (powers, q), c in diff.items() if c < 0)
    if not below:  # m1 != m2, so some coefficient is left
        return Comparison.GREATER
    if not above:
        return Comparison.LESS
    for width in _WIDTHS:
        lo1, hi1 = _ln_fixed(above, width)
        lo2, hi2 = _ln_fixed(below, width)
        if hi1 < lo2:
            return Comparison.LESS
        if lo1 > hi2:
            return Comparison.GREATER
    raise IndistinguishableError(
        f"magnitudes not separated at {_WIDTHS[-1] - _GUARD_BITS} bits of precision"
    )


def digit_count(m: Magnitude) -> int:
    """floor(log10(m)) + 1, correct to within 1; exact for materialized values.

    It climbs compare's ladder, from 128 bits: the count divides ln m by ln 10,
    so its error grows with ln m, and 64 bits are too coarse to pin the count
    of a bound-table constant whose log is near 2^77.
    """
    v = force_exact(m)
    if v is not None:
        return int_digits(v)
    for width in _WIDTHS:
        lo, hi = _ln_fixed(m.terms, width)
        l10_lo, l10_hi = _ln_int_fixed(10, width)
        f_lo = lo // l10_hi
        f_hi = hi // l10_lo
        if f_lo == f_hi:
            return f_lo + 1
    if f_hi - f_lo == 1:
        return f_hi + 1  # true count is f_lo+1 or f_hi+1: within 1 either way
    raise IndistinguishableError("digit count not pinned at the precision ceiling")
