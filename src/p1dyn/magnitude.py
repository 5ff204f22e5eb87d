"""Exact representation and rigorous comparison of astronomically large counts.

A magnitude is a nonnegative value built from exact integers, pure
exponentials e^q with exact rational q, integer powers, sums, products, and
maxima.  The constructors fold every integer of at most EXACT_DIGIT_CEILING
decimal digits into an Exact node, and max_of decides dominance once, when it
is built; by Lindemann-Weierstrass any other node they build is irrational or
past the ceiling, so only an Exact node ever materializes.  Nodes built by
hand, bypassing the constructors, are outside this contract.  Everything else
is compared through interval arithmetic on natural logarithms with integer
endpoints at scale 2^-(prec+16), doubling the working precision prec until
the comparison is decided.  A comparison that cannot be decided raises
rather than guessing.

Every endpoint is rounded outward (directed rounding), so it is a true
bound.  The logarithms of integers come from the atanh series
ln(n) = e*ln(2) + 2*atanh((n - 2^e)/(n + 2^e)) evaluated in fixed point.
Every Sum is bounded by one rule, each end in full: the lower end as
m + ln(1 + sum of e^(lo_i - m)) with m the largest lower end, the upper end
the same way from the upper ends.  e^t comes from a fixed-point Taylor series
after taking out a power of two, and ln(1 + C) from
ln(2^width * (1 + C)) - width*ln(2), so every interval narrows as the
precision grows.
An interval is a single point only for Exact(1) and for an exponential with a
dyadic exponent; beyond those, two constructor-built magnitudes compare EQUAL
only when they are equal nodes.  A hand-built tree whose logarithm is a
non-dyadic rational, such as Power(ExpOf(1/3), 3) against ExpOf(1), is outside
the contract: it raises IndistinguishableError instead of answering EQUAL.
Two exponents closer than the finest scale, 2^-(8192+16), do not separate.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache

from .intarith import int_digits
from .record import Record, _set

EXACT_DIGIT_CEILING = 10**6
_PREC_START = 64
_PREC_CEILING = 1 << 13
_GUARD_BITS = 16


class Comparison(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class IndistinguishableError(ArithmeticError):
    """Two magnitudes could not be separated at the precision ceiling."""


class MagnitudeInputError(ValueError):
    pass


class Exact(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _set(self, "value", value)


class ExpOf(Record):
    __slots__ = ("ln",)

    def __init__(self, ln: Fraction):
        _set(self, "ln", ln)


class Power(Record):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Magnitude, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class Sum(Record):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        _set(self, "parts", parts)


class Prod(Record):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        _set(self, "parts", parts)


class MaxOf(Record):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        _set(self, "parts", parts)


Magnitude = Exact | ExpOf | Power | Sum | Prod | MaxOf


def _key(m):
    if isinstance(m, Exact):
        return (0, m.value)
    if isinstance(m, ExpOf):
        return (1, m.ln)
    if isinstance(m, Power):
        return (2, _key(m.base), m.exponent)
    if isinstance(m, Sum):
        return (3, tuple(_key(p) for p in m.parts))
    if isinstance(m, Prod):
        return (4, tuple(_key(p) for p in m.parts))
    return (5, tuple(_key(p) for p in m.parts))


def _digits_at_most(v: int, ceiling: int) -> bool:
    # cheap overestimate first, exact only near the boundary
    approx = v.bit_length() * 30103 // 100000
    if approx > ceiling + 2:
        return False
    return int_digits(v) <= ceiling


def exact(v: int) -> Magnitude:
    if not isinstance(v, int) or v < 0:
        raise MagnitudeInputError("exact magnitudes are nonnegative integers")
    return Exact(v)


def exp_of(q) -> Magnitude:
    if not isinstance(q, (int, Fraction)):
        raise MagnitudeInputError("exponential magnitudes need an int or Fraction exponent")
    q = Fraction(q)
    if q < 0:
        raise MagnitudeInputError("exponential magnitudes need a nonnegative exponent")
    if q == 0:
        return Exact(1)
    return ExpOf(q)


def power(base: Magnitude, exponent: int) -> Magnitude:
    if not isinstance(exponent, int) or exponent < 0:
        raise MagnitudeInputError("powers need a nonnegative integer exponent")
    if exponent == 0:
        return Exact(1)
    if exponent == 1:
        return base
    if isinstance(base, Exact):
        if base.value in (0, 1):
            return base
        # the power has more than (bit_length - 1) * exponent * log10(2) digits
        if (base.value.bit_length() - 1) * exponent * 30102 // 100000 <= EXACT_DIGIT_CEILING:
            value = base.value**exponent
            if _digits_at_most(value, EXACT_DIGIT_CEILING):
                return Exact(value)
        return Power(base, exponent)
    if isinstance(base, ExpOf):
        return ExpOf(base.ln * exponent)
    if isinstance(base, Power):
        return power(base.base, base.exponent * exponent)
    return Power(base, exponent)


def _is_zero(m: Magnitude) -> bool:
    return isinstance(m, Exact) and m.value == 0


def _flatten(parts, node_type) -> list:
    """The parts, with each node of node_type replaced by its own parts."""
    flat: list[Magnitude] = []
    for p in parts:
        if isinstance(p, node_type):
            flat.extend(p.parts)
        else:
            flat.append(p)
    return flat


def prod_of(*parts: Magnitude) -> Magnitude:
    flat = _flatten(parts, Prod)
    if any(_is_zero(p) for p in flat):
        return Exact(0)
    acc_exact = 1
    acc_ln = Fraction(0)
    powers: dict = {}
    rest: list[Magnitude] = []
    for p in flat:
        if isinstance(p, Exact):
            acc_exact *= p.value
        elif isinstance(p, ExpOf):
            acc_ln += p.ln
        elif isinstance(p, Power):
            powers[p.base] = powers.get(p.base, 0) + p.exponent
        else:
            rest.append(p)
    for base, e in sorted(powers.items(), key=lambda kv: _key(kv[0])):
        rest.append(power(base, e))
    if acc_ln:
        rest.append(ExpOf(acc_ln))
    if acc_exact != 1:
        rest.append(Exact(acc_exact))
    if not rest:
        return Exact(acc_exact)
    if len(rest) == 1:
        return rest[0]
    return Prod(tuple(sorted(rest, key=_key)))


def sum_of(*parts: Magnitude) -> Magnitude:
    acc_exact = 0
    rest: list[Magnitude] = []
    for p in _flatten(parts, Sum):
        if isinstance(p, Exact):
            acc_exact += p.value
        else:
            rest.append(p)
    grouped: list[Magnitude] = []
    counts: dict = {}
    for p in rest:
        counts[p] = counts.get(p, 0) + 1
    for p, k in sorted(counts.items(), key=lambda kv: _key(kv[0])):
        grouped.append(p if k == 1 else prod_of(Exact(k), p))
    if acc_exact:
        grouped.append(Exact(acc_exact))
    if not grouped:
        return Exact(acc_exact)
    if len(grouped) == 1:
        return grouped[0]
    return Sum(tuple(sorted(grouped, key=_key)))


def max_of(*parts: Magnitude) -> Magnitude:
    """The maximum, with dominance decided here, once.

    A part that another part provably bounds (their comparison is not LESS)
    is dropped; parts are visited in canonical order, so argument order
    never changes the result.  What is left is the one dominant part, or a
    MaxOf of the parts no comparison could separate.
    """
    kept: list[Magnitude] = []
    for p in sorted(set(_flatten(parts, MaxOf)), key=_key):
        verdicts = []
        for q in kept:
            try:
                verdicts.append(compare(p, q))
            except IndistinguishableError:
                verdicts.append(None)
        if all(v in (Comparison.GREATER, None) for v in verdicts):
            kept = [q for q, v in zip(kept, verdicts) if v is None] + [p]
    if not kept:
        raise MagnitudeInputError("max of nothing")
    return kept[0] if len(kept) == 1 else MaxOf(tuple(kept))


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
        shift = bits - (width + 8)
        head = n >> shift
        lo = _ln_int_fixed(head, width)[0]
        hi = _ln_int_fixed(head + 1, width)[1]
        l2_lo, l2_hi = _ln2_fixed(width)
        return lo + shift * l2_lo, hi + shift * l2_hi
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


def _ln_exp_sum(ivs: list, width: int) -> tuple[int, int]:
    """Bounds on ln(sum of e^(x * 2^-width)) * 2^width, each x within its (lo, hi).

    The rule for every Sum.  With m the largest end on a side, the sum is
    e^m * (1 + C) for C the sum of e^(x - m) over the other ends, and
    ln(1 + C) = ln(2^width * (1 + C)) - width * ln 2.
    """
    l2_lo, l2_hi = _ln2_fixed(width)
    top_lo = max(lo for lo, _ in ivs)
    top_hi = max(hi for _, hi in ivs)
    s_lo = s_hi = 0  # 2^width * (1 + C) on each side, the top end included
    for lo, hi in ivs:
        s_lo += _exp_neg_fixed(top_lo - lo, width)[0]
        s_hi += _exp_neg_fixed(top_hi - hi, width)[1]
    return (top_lo + _ln_int_fixed(s_lo, width)[0] - width * l2_hi,
            top_hi + _ln_int_fixed(s_hi, width)[1] - width * l2_lo)


def _ln_fixed(m: Magnitude, width: int) -> tuple[int, int] | None:
    """(lo, hi) with lo * 2^-width <= ln(m) <= hi * 2^-width; None for zero.

    Every rounding step widens the interval, never narrows it.
    """
    if isinstance(m, Exact):
        return None if m.value == 0 else _ln_int_fixed(m.value, width)
    if isinstance(m, ExpOf):
        num, den = m.ln.numerator << width, m.ln.denominator
        return num // den, -(-num // den)
    if isinstance(m, Power):
        lo, hi = _ln_fixed(m.base, width)
        return lo * m.exponent, hi * m.exponent
    if not isinstance(m, (Sum, Prod, MaxOf)):
        raise MagnitudeInputError(f"not a magnitude: {m!r}")
    ivs = [_ln_fixed(p, width) for p in m.parts]
    if isinstance(m, Prod):
        return sum(lo for lo, _ in ivs), sum(hi for _, hi in ivs)
    if isinstance(m, MaxOf):
        return max(lo for lo, _ in ivs), max(hi for _, hi in ivs)
    return _ln_exp_sum(ivs, width)


def ln_interval(m: Magnitude, prec: int) -> tuple[Fraction, Fraction] | None:
    """Rigorous bounds on ln(m) as rationals; None for the zero magnitude."""
    width = prec + _GUARD_BITS
    iv = _ln_fixed(m, width)
    if iv is None:
        return None
    return Fraction(iv[0], 1 << width), Fraction(iv[1], 1 << width)


def force_exact(m: Magnitude) -> int | None:
    """The value of an Exact node within the digit ceiling; None for any other node.

    A leaf check: no other node the constructors build could materialize (the
    module docstring gives the rule); nodes built by hand are outside it.
    """
    if isinstance(m, Exact):
        return m.value if _digits_at_most(m.value, EXACT_DIGIT_CEILING) else None
    if isinstance(m, (ExpOf, Power, Sum, Prod, MaxOf)):
        return None
    raise MagnitudeInputError(f"not a magnitude: {m!r}")


def compare(m1: Magnitude, m2: Magnitude) -> Comparison:
    """Rigorous three-way comparison; raises IndistinguishableError if stuck."""
    if m1 == m2:
        return Comparison.EQUAL
    z1, z2 = _is_zero(m1), _is_zero(m2)
    if z1 or z2:
        if z1 and z2:
            return Comparison.EQUAL
        return Comparison.LESS if z1 else Comparison.GREATER
    v1 = force_exact(m1)
    v2 = force_exact(m2)
    if v1 is not None and v2 is not None:
        if v1 == v2:
            return Comparison.EQUAL
        return Comparison.LESS if v1 < v2 else Comparison.GREATER
    prec = _PREC_START
    while prec <= _PREC_CEILING:
        width = prec + _GUARD_BITS
        lo1, hi1 = _ln_fixed(m1, width)
        lo2, hi2 = _ln_fixed(m2, width)
        if hi1 < lo2:
            return Comparison.LESS
        if lo1 > hi2:
            return Comparison.GREATER
        if lo1 == hi1 == lo2 == hi2:
            return Comparison.EQUAL  # both logs pinned to the same dyadic rational
        prec *= 2
    raise IndistinguishableError(
        f"magnitudes not separated at {_PREC_CEILING} bits of precision"
    )


def digit_count(m: Magnitude) -> int:
    """floor(log10(m)) + 1, correct to within 1; exact for materialized values."""
    v = force_exact(m)
    if v is not None:
        return int_digits(v)
    prec = _PREC_START
    while True:
        width = prec + _GUARD_BITS
        lo, hi = _ln_fixed(m, width)
        l10_lo, l10_hi = _ln_int_fixed(10, width)
        f_lo = lo // l10_hi
        f_hi = hi // l10_lo
        if f_lo == f_hi:
            return f_lo + 1
        if prec >= _PREC_CEILING:
            if f_hi - f_lo == 1:
                return f_hi + 1  # true count is f_lo+1 or f_hi+1: within 1 either way
            raise IndistinguishableError("digit count not pinned at the precision ceiling")
        prec *= 2
