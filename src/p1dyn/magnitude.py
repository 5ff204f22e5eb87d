"""Exact representation and rigorous comparison of astronomically large counts.

A magnitude is a nonnegative value built from exact integers, pure
exponentials e^q with exact rational q, integer powers, sums, products, and
maxima.  An integral exponent q, as every one the bounds build is, is kept
as an int, and a Fraction only otherwise: Fraction(n) == n and
hash(Fraction(n)) == hash(n), so a key holding n compares, hashes and sorts
as one holding Fraction(n), while sums, products and the text of exponents
stay in int arithmetic.  The constructors fold every integer of at most
EXACT_DIGIT_CEILING decimal digits into an Exact node, and max_of decides
dominance once, when it is built; by Lindemann-Weierstrass any other node
they build is irrational or past the ceiling, so only an Exact node ever
materializes.  Nodes built by hand, bypassing the constructors, are outside
this contract.  Everything else is compared by the log2 brackets the nodes
store (below).  Where those overlap, two Sums that share parts are compared
by their unshared parts, since a + c compares with b + c exactly as a with
b, and any other pair through interval arithmetic on natural logarithms
with integer endpoints at scale 2^-(prec+16), doubling the working
precision prec from 128 until the comparison is decided; digit_count climbs
the same ladder.  A comparison that cannot be decided, such as a Sum
against its own buried head, raises rather than guessing.

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

Beyond its fields, every node stores its canonical sort key and its hash,
both made once in its constructor from its children's stored ones, and one
slot: its last _ln_fixed interval with the width it was made at.  Nodes are
immutable and _ln_fixed is deterministic at a given width, so none of these
goes stale.  The constructors' canonical sorts, equality and hashing read the
stored key and hash.  The ladder's first width, 144, decides every digit
count of the bound tables, so the digit counts of a report find each shared
node's interval made once; a climb past 144 replaces the slot, and the next
ask at 144 computes the interval again.

Each node also stores integers lo <= log2(value) <= hi, made in its
constructor from its children's, each rule rounding outward: (b, b) for
Exact(2^b), (b, b + 1) for other Exact values in [2^b, 2^(b+1)), q / ln 2
over the far bound on ln 2 at width 144 for ExpOf(q), the base's ends times
e for a Power, the sums of the ends for a Prod, their maxima for a MaxOf,
and for a Sum of n parts the maxima with ceil(log2 n) added on top.  A zero
at or below a node, or a negative exponent built by hand, leaves None.  The
library's bounds lie thousands of bits apart, so these brackets decide the
comparisons of max_of and verify without any log interval.
"""

from __future__ import annotations

import enum
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

from .intarith import int_digits
from .record import Record, _set

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


class _Node(Record):
    """The memo slots of every node (the module docstring says why they are sound).

    ``_key``, ``_hash`` and the integer bracket ``_log2`` = ``(lo, hi)`` (or
    None) are set in ``__init__``.  ``_ln`` is None until the first
    ``_ln_fixed`` result, then ``(width, (lo, hi))`` of the last one.
    Equality reads the key.
    """

    __slots__ = ("_key", "_hash", "_log2", "_ln")

    def __eq__(self, other):
        if isinstance(other, _Node):
            return self._hash == other._hash and self._key == other._key
        return NotImplemented

    def __hash__(self):
        return self._hash


def _seal(node: _Node, key: tuple, digest: int, log2: tuple | None) -> None:
    _set(node, "_key", key)
    _set(node, "_hash", digest)
    _set(node, "_log2", log2)
    _set(node, "_ln", None)


def _seal_parts(node: _Node, tag: int, parts: tuple, combine, spread: int = 0) -> None:
    """Seal a node of parts; its bracket combines theirs end by end, plus spread on top."""
    brackets = list(map(_bracket, parts))
    log2 = None
    if brackets and None not in brackets:
        los, his = zip(*brackets)
        log2 = combine(los), combine(his) + spread
    _seal(node, (tag, tuple(map(_canonical, parts))),
          hash((tag, tuple(map(_hashed, parts)))), log2)


class Exact(_Node):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _set(self, "value", value)
        key = (0, value)
        b = value.bit_length() - 1
        _seal(self, key, hash(key), None if value < 1 else (b, b if value == 1 << b else b + 1))


class ExpOf(_Node):
    __slots__ = ("ln",)

    def __init__(self, ln: int | Fraction):
        if ln.denominator == 1:
            ln = ln.numerator  # an integral exponent is kept as an int
        _set(self, "ln", ln)
        key = (1, ln)
        log2 = None  # a negative exponent, built by hand, would round the wrong way
        if ln >= 0:  # log2 e^q = q / ln 2, at the ladder's first width, whose ln 2 is cached
            width = _WIDTHS[0]
            l2_lo, l2_hi = _ln2_fixed(width)
            num, den = ln.numerator << width, ln.denominator
            log2 = num // (den * l2_hi), -(-num // (den * l2_lo))
        _seal(self, key, hash(key), log2)


class Power(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Magnitude, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)
        b = base._log2
        _seal(self, (2, base._key, exponent), hash((2, base._hash, exponent)),
              None if b is None else (b[0] * exponent, b[1] * exponent))


class Sum(_Node):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        _set(self, "parts", parts)
        # n parts sum to at most n times the largest: ceil(log2 n) more bits
        _seal_parts(self, 3, parts, max, (len(parts) - 1).bit_length())


class Prod(_Node):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        _set(self, "parts", parts)
        _seal_parts(self, 4, parts, sum)


class MaxOf(_Node):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        _set(self, "parts", parts)
        _seal_parts(self, 5, parts, max)


Magnitude = Exact | ExpOf | Power | Sum | Prod | MaxOf
_canonical, _hashed, _bracket = attrgetter("_key"), attrgetter("_hash"), attrgetter("_log2")


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
    return Exact(v)


def exp_of(q) -> Magnitude:
    if type(q) not in (int, Fraction):
        raise MagnitudeInputError("exponential magnitudes need an int or Fraction exponent")
    if q < 0:
        raise MagnitudeInputError("exponential magnitudes need a nonnegative exponent")
    if q == 0:
        return Exact(1)
    return ExpOf(q)


def power(base: Magnitude, exponent: int) -> Magnitude:
    if type(exponent) is not int or exponent < 0:
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


def _flatten(parts, node_type) -> list:
    """The parts, with each node of node_type replaced by its own parts."""
    flat: list[Magnitude] = []
    for p in parts:
        if isinstance(p, node_type):
            flat.extend(p.parts)
        else:
            flat.append(p)
    return flat


def _folded(exacts: list, value) -> Exact:
    """The constant part folded to value: the one Exact part itself when only one was seen."""
    return exacts[0] if len(exacts) == 1 else Exact(value)


def prod_of(*parts: Magnitude) -> Magnitude:
    acc_exact = 1
    exacts: list[Exact] = []
    acc_ln = 0
    powers: dict = {}
    rest: list[Magnitude] = []
    for p in _flatten(parts, Prod):
        if isinstance(p, Exact):
            if not p.value:
                return p
            acc_exact *= p.value
            exacts.append(p)
        elif isinstance(p, ExpOf):
            acc_ln += p.ln
        elif isinstance(p, Power):
            powers[p.base] = powers.get(p.base, 0) + p.exponent
        else:
            rest.append(p)
    rest += [power(base, e) for base, e in powers.items()]  # the sort below orders them
    if acc_ln:
        rest.append(ExpOf(acc_ln))
    if acc_exact != 1:
        rest.append(_folded(exacts, acc_exact))
    if not rest:
        return _folded(exacts, acc_exact)
    if len(rest) == 1:
        return rest[0]
    return Prod(tuple(sorted(rest, key=_canonical)))


def sum_of(*parts: Magnitude) -> Magnitude:
    """The sum, its parts k * core of one core merged into one; a core seen once keeps its node.

    k is a Prod's leading Exact part and the core the rest; any other part is 1 * itself.
    """
    acc_exact = 0
    exacts: list[Exact] = []
    cores: dict = {}  # each core's parts to [its k summed, its part while seen once]
    for p in _flatten(parts, Sum):
        if isinstance(p, Exact):
            acc_exact += p.value
            exacts.append(p)
            continue
        k, core = 1, (p.parts if isinstance(p, Prod) else (p,))
        if isinstance(core[0], Exact):  # only a Prod's sorted parts start with one
            k, core = core[0].value, core[1:]
        seen = cores.get(core)
        if seen is None:
            cores[core] = [k, p]
        else:
            seen[0] += k
            seen[1] = None
    grouped = [prod_of(Exact(k), *core) if p is None else p for core, (k, p) in cores.items()]
    if acc_exact:
        grouped.append(_folded(exacts, acc_exact))
    if not grouped:
        return _folded(exacts, acc_exact)
    if len(grouped) == 1:
        return grouped[0]
    return Sum(tuple(sorted(grouped, key=_canonical)))


def max_of(*parts: Magnitude) -> Magnitude:
    """The maximum, with dominance decided here, once.

    A part that another part provably bounds (their comparison is not LESS)
    is dropped; parts are visited in canonical order, so argument order
    never changes the result.  What is left is the one dominant part, or a
    MaxOf of the parts no comparison could separate.
    """
    kept: list[Magnitude] = []
    for p in sorted(set(_flatten(parts, MaxOf)), key=_canonical):
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

    Every rounding step widens the interval, never narrows it.  The node keeps
    the result in its slot, so a tree asked again at that width, or a tree
    that shares the node, reads it instead of walking it.
    """
    try:
        memo = m._ln
    except AttributeError:
        raise MagnitudeInputError(f"not a magnitude: {m!r}") from None
    if memo is not None and memo[0] == width:
        return memo[1]
    if isinstance(m, Exact):
        iv = None if m.value == 0 else _ln_int_fixed(m.value, width)
    elif isinstance(m, ExpOf):
        num, den = m.ln.numerator << width, m.ln.denominator
        iv = num // den, -(-num // den)
    elif isinstance(m, Power):
        lo, hi = _ln_fixed(m.base, width)
        iv = lo * m.exponent, hi * m.exponent
    else:
        ivs = [_ln_fixed(p, width) for p in m.parts]
        if isinstance(m, Prod):
            iv = sum(lo for lo, _ in ivs), sum(hi for _, hi in ivs)
        elif isinstance(m, MaxOf):
            iv = max(lo for lo, _ in ivs), max(hi for _, hi in ivs)
        else:
            iv = _ln_exp_sum(ivs, width)
    _set(m, "_ln", (width, iv))
    return iv


def ln_interval(m: Magnitude, prec: int) -> tuple[Fraction, Fraction] | None:
    """Rigorous bounds on ln(m) as rationals; None for the zero magnitude."""
    if type(prec) is not int or prec < 1:
        raise MagnitudeInputError("log intervals need a positive integer precision")
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
    """Rigorous three-way comparison; raises IndistinguishableError if stuck.

    Disjoint stored log2 brackets decide first; they are true bounds, so the
    ladder, wherever it decides, agrees.  Two Sums that share parts are then
    compared by their unshared parts (a + c against b + c is a against b, as
    magnitudes are reals); any other pair climbs the ladder.  A Sum against
    its own buried head still raises.
    """
    if m1 == m2:  # equal Exact values, zero among them, are equal nodes
        return Comparison.EQUAL
    v1 = force_exact(m1)
    v2 = force_exact(m2)
    if v1 is not None and v2 is not None:
        return Comparison.LESS if v1 < v2 else Comparison.GREATER
    if v1 == 0 or v2 == 0:  # zero lies below every other magnitude, and has no log
        return Comparison.LESS if v1 == 0 else Comparison.GREATER
    b1, b2 = m1._log2, m2._log2
    if b1 is not None and b2 is not None:
        if b1[1] < b2[0]:
            return Comparison.LESS
        if b1[0] > b2[1]:
            return Comparison.GREATER
    if isinstance(m1, Sum) and isinstance(m2, Sum):
        parts1, parts2 = Counter(m1.parts), Counter(m2.parts)
        if parts1 & parts2:
            return compare(sum_of(*(parts1 - parts2).elements()),
                           sum_of(*(parts2 - parts1).elements()))
    for width in _WIDTHS:
        lo1, hi1 = _ln_fixed(m1, width)
        lo2, hi2 = _ln_fixed(m2, width)
        if hi1 < lo2:
            return Comparison.LESS
        if lo1 > hi2:
            return Comparison.GREATER
        if lo1 == hi1 == lo2 == hi2:
            return Comparison.EQUAL  # both logs pinned to the same dyadic rational
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
        lo, hi = _ln_fixed(m, width)
        l10_lo, l10_hi = _ln_int_fixed(10, width)
        f_lo = lo // l10_hi
        f_hi = hi // l10_lo
        if f_lo == f_hi:
            return f_lo + 1
    if f_hi - f_lo == 1:
        return f_hi + 1  # true count is f_lo+1 or f_hi+1: within 1 either way
    raise IndistinguishableError("digit count not pinned at the precision ceiling")
