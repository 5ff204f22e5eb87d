"""Tests for the magnitude engine.

The interval endpoints must always bracket the true logarithm, and every
frozen constant here was computed independently (mpmath at 60+ digits, or
direct integer arithmetic) before the engine existed.
"""

import contextlib
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p1dyn.magnitude import (
    Comparison,
    Exact,
    ExpOf,
    IndistinguishableError,
    MagnitudeInputError,
    Power,
    Sum,
    compare,
    digit_count,
    exact,
    exp_of,
    force_exact,
    int_digits,
    ln_interval,
    max_of,
    power,
    prod_of,
    sum_of,
    _ln_int_fixed,
)


def test_int_digits_matches_str():
    rng = random.Random(11)
    cases = [0, 1, 9, 10, 99, 100, 10**12 - 1, 10**12, 7**100]
    cases += [rng.randrange(10**rng.randrange(1, 60)) for _ in range(200)]
    for v in cases:
        assert int_digits(v) == len(str(v))


def test_constructor_canonical_forms():
    assert exp_of(0) == Exact(1)
    assert power(exact(5), 0) == Exact(1)
    assert power(exact(2), 16) == Exact(65536)
    assert power(exact(2), 1) == Exact(2)
    assert power(exp_of(3), 4) == ExpOf(Fraction(12))
    assert power(power(exact(10), 2 * 10**6), 3) == Power(Exact(10), 6 * 10**6)
    # too large to materialize stays symbolic
    big = power(exact(2), 2**77)
    assert isinstance(big, Power)

    assert prod_of(exact(6), exact(7)) == Exact(42)
    assert prod_of(exp_of(2), exp_of(3)) == ExpOf(Fraction(5))
    assert prod_of(exact(0), exp_of(10**9)) == Exact(0)
    assert sum_of(exact(2), exact(3)) == Exact(5)
    assert sum_of(exact(0), exp_of(4)) == ExpOf(Fraction(4))
    # identical symbolic parts group into a scalar multiple
    s = sum_of(exp_of(4), exp_of(4), exp_of(4))
    assert s == prod_of(exact(3), exp_of(4))
    # order of construction never matters
    assert sum_of(exact(2), exp_of(5)) == sum_of(exp_of(5), exact(2))
    assert prod_of(exact(3), exp_of(5), exact(4)) == prod_of(exact(12), exp_of(5))

    assert max_of(exact(3), exact(9)) == Exact(9)
    assert max_of(exact(0), exp_of(7)) == ExpOf(Fraction(7))
    assert max_of(exp_of(7), exp_of(7)) == ExpOf(Fraction(7))

    with pytest.raises(MagnitudeInputError):
        exact(-1)
    with pytest.raises(MagnitudeInputError):
        exp_of(Fraction(-1, 2))
    with pytest.raises(MagnitudeInputError):
        power(exact(2), -3)
    # exponents are exact: no float ever enters a magnitude
    for bad_power in ((exp_of(3), 1.5), (exact(2), 2.5), (exact(2), Fraction(2))):
        with pytest.raises(MagnitudeInputError):
            power(*bad_power)
    for bad_ln in (float("nan"), 2.5, "3"):
        with pytest.raises(MagnitudeInputError):
            exp_of(bad_ln)


def test_ln_fixed_brackets_truth():
    mp.mp.dps = 120
    rng = random.Random(23)
    ns = [2, 3, 7, 10, 12345, 7**8, 10**30, 2**200 + 12345, 3**500]
    ns += [rng.randrange(2, 10**18) for _ in range(40)]
    for n in ns:
        for width in (48, 80, 272):
            lo, hi = _ln_int_fixed(n, width)
            truth = mp.ln(n) * mp.mpf(2) ** width
            assert mp.mpf(lo) <= truth <= mp.mpf(hi)
            # envelope stays tight relative to the working scale
            assert Fraction(hi - lo, 1 << width) < Fraction(1, 1 << (width // 2))


def test_ln_interval_point_forms():
    q = Fraction(30**15)
    iv = ln_interval(exp_of(q), 64)
    assert iv == (q, q)
    iv = ln_interval(power(exp_of(3), 5), 64)
    assert iv == (Fraction(15), Fraction(15))
    assert ln_interval(exact(0), 64) is None
    assert ln_interval(exact(1), 64) == (0, 0)


def test_ln_interval_dominated_sum_brackets_truth():
    mp.mp.dps = 60
    s = sum_of(exp_of(10), exp_of(3), exact(5))
    iv = ln_interval(s, 64)
    truth = mp.ln(mp.e**10 + mp.e**3 + 5)
    lo = mp.mpf(iv[0].numerator) / iv[0].denominator
    hi = mp.mpf(iv[1].numerator) / iv[1].denominator
    assert lo <= truth <= hi
    # corrections snap to powers of two, so expect coarse but bounded width
    assert iv[1] - iv[0] < Fraction(1, 2**8)


def test_ln_interval_overlapping_sum_falls_back():
    iv = ln_interval(sum_of(exp_of(5), exp_of(Fraction(51, 10))), 64)
    # heads too close to dominate: ln(max) <= ln(sum) <= ln(max) + ln(parts)
    assert iv[0] >= Fraction(5)
    assert iv[1] <= Fraction(51, 10) + Fraction(1)


def test_force_exact():
    assert force_exact(exact(123)) == 123
    assert force_exact(exp_of(5)) is None
    assert force_exact(power(exact(2), 100)) == 2**100
    assert force_exact(Power(Exact(10), 10**7)) is None
    assert force_exact(sum_of(exact(1), power(exact(3), 7))) == 1 + 3**7
    assert force_exact(prod_of(exact(12), power(exact(7), 4))) == 12 * 7**4
    assert force_exact(sum_of(exact(1), exp_of(2))) is None
    assert force_exact(max_of(exact(5), power(exact(2), 10))) == 1024
    # the max is an unforcible exponential: refuse honestly
    assert force_exact(max_of(exact(5), exp_of(3))) is None


def test_force_exact_rejects_non_magnitudes():
    with pytest.raises(MagnitudeInputError):
        force_exact(5)


def test_power_folds_every_integer_within_the_ceiling():
    # 2^(2*10^6) has 602,060 digits: inside the ceiling, so it is built as
    # Exact even though bit_length * exponent overestimates it twofold
    m = power(exact(2), 2 * 10**6)
    assert isinstance(m, Exact)
    assert force_exact(m) == 2 ** (2 * 10**6)
    assert isinstance(power(exact(2), 4 * 10**6), Power)


_leaf = st.one_of(
    st.integers(0, 10**6).map(exact),
    st.fractions(min_value=0, max_value=60, max_denominator=8).map(exp_of),
)
_sum = st.lists(_leaf, min_size=1, max_size=3).map(lambda ps: sum_of(*ps))
_part = st.one_of(
    _leaf,
    _sum,
    st.tuples(st.one_of(_leaf, _sum), st.integers(0, 4)).map(lambda t: power(*t)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_part, min_size=1, max_size=5), st.data())
def test_max_of_decides_dominance_at_construction(parts, data):
    m = max_of(*parts)
    assert max_of(*data.draw(st.permutations(parts))) == m
    for p in parts:
        # a comparison may fail to separate, but never proves the max smaller
        with contextlib.suppress(IndistinguishableError):
            assert compare(m, p) is not Comparison.LESS
    if all(isinstance(p, Exact) for p in parts):
        assert m == Exact(max(p.value for p in parts))
    assert (force_exact(m) is not None) == isinstance(m, Exact)


def _mp_value(m):
    if isinstance(m, Exact):
        return mp.mpf(m.value)
    if isinstance(m, ExpOf):
        return mp.exp(mp.mpf(m.ln.numerator) / m.ln.denominator)
    if isinstance(m, Power):
        return _mp_value(m.base) ** m.exponent
    values = [_mp_value(p) for p in m.parts]
    return mp.fsum(values) if isinstance(m, Sum) else mp.fprod(values)


@settings(max_examples=150, deadline=None)
@given(_part, _part)
# ln(1 + e^(-11/8)) = 0.2254 lies below e^(-11/8) = 0.2528: the lower
# correction needs its -x^2/2 term here
@example(sum_of(exact(1), exp_of(Fraction(11, 8))), exact(1))
def test_kernel_agrees_with_mpmath(a, b):
    with mp.workdps(80):
        # slack far below every interval width the kernel produces, far above
        # mpmath's own rounding at 80 digits
        eps = mp.mpf(10) ** -60
        va, vb = _mp_value(a), _mp_value(b)
        if va == 0:
            assert ln_interval(a, 64) is None and digit_count(a) == 1
            return
        truth = mp.ln(va)
        for prec in (64, 256):
            lo, hi = ln_interval(a, prec)
            assert mp.mpf(lo.numerator) / lo.denominator - eps <= truth
            assert truth <= mp.mpf(hi.numerator) / hi.denominator + eps
        assert abs(digit_count(a) - (int(mp.floor(mp.log10(va))) + 1)) <= 1
        try:
            verdict = compare(a, b)
        except IndistinguishableError:
            return
        if verdict is Comparison.LESS:
            assert va <= vb * (1 + eps)
        elif verdict is Comparison.GREATER:
            assert vb <= va * (1 + eps)
        else:
            assert abs(va - vb) <= eps * va


def test_compare_basic():
    assert compare(exact(3), exact(3)) is Comparison.EQUAL
    assert compare(exact(2), exact(5)) is Comparison.LESS
    assert compare(exact(0), exp_of(1)) is Comparison.LESS
    assert compare(exp_of(1), exact(0)) is Comparison.GREATER
    assert compare(exp_of(18**9), exact(2**16)) is Comparison.GREATER
    assert compare(exact(2**16), exp_of(18**9)) is Comparison.LESS
    assert compare(exp_of(Fraction(1, 2)), exact(2)) is Comparison.LESS
    assert compare(exp_of(Fraction(7, 10)), exact(2)) is Comparison.GREATER
    # e^(30^15) dwarfs e^(18^9)
    assert compare(exp_of(30**15), exp_of(18**9)) is Comparison.GREATER
    # canonically equal trees built in different order
    a = sum_of(prod_of(exact(2), exp_of(9)), exact(7))
    b = sum_of(exact(7), prod_of(exp_of(9), exact(2)))
    assert compare(a, b) is Comparison.EQUAL


def test_compare_point_interval_equality():
    a = max_of(exact(2), exp_of(5))
    assert compare(a, exp_of(5)) is Comparison.EQUAL


def test_compare_mixed_scales():
    rng = random.Random(5)
    for _ in range(50):
        x = rng.randrange(1, 10**6)
        y = rng.randrange(1, 10**6)
        got = compare(exact(x), exact(y))
        want = Comparison.LESS if x < y else Comparison.GREATER if x > y else Comparison.EQUAL
        assert got is want
    # symbolic versus exact across a genuine gap
    assert compare(power(exact(2), 2**24), power(exact(3), 2**24)) is Comparison.LESS
    assert compare(power(exact(2), 2**24), exact(10**300)) is Comparison.GREATER


def test_compare_additively_buried_difference_raises():
    # s = e^(30^15) + 6 e^(18^9) + c exceeds e^(30^15) by a relative amount
    # around e^(-10^22); no logarithmic method can separate that, and the
    # engine must say so instead of guessing
    s = sum_of(exp_of(30**15), prod_of(exact(6), exp_of(18**9)), exact(2191558))
    with pytest.raises(IndistinguishableError):
        compare(s, exp_of(30**15))


def test_digit_count_exact_values():
    assert digit_count(exact(0)) == 1
    assert digit_count(exact(999)) == 3
    assert digit_count(exact(1000)) == 4
    assert digit_count(power(exact(2), 32)) == 10


def test_digit_count_frozen_large_constants():
    # frozen from mpmath at 60 digits: floor(18^9 / ln 10) + 1
    assert digit_count(exp_of(18**9)) == 86146345242
    # floor(30^15 / ln 10) + 1
    assert digit_count(exp_of(30**15)) == 6231651131442943472547
    # a dominated sum inherits the head's count
    s = sum_of(exp_of(30**15), prod_of(exact(6), exp_of(18**9)), exact(2191558))
    assert digit_count(s) == 6231651131442943472547


def test_digit_count_at_the_precision_ceiling():
    # heads exactly 1 apart take the far-heads bound, whose correction snaps
    # to powers of two: log10 lies in [9.92, 10.05] at every precision, the
    # true count is 10 (log10 = 9.962) and the engine answers the upper one
    assert digit_count(sum_of(exp_of(Fraction(181, 8)), exp_of(Fraction(173, 8)))) == 11
    # the twentieth power of such a sum spans more than two decades
    with pytest.raises(IndistinguishableError):
        digit_count(power(sum_of(exp_of(10), exp_of(9)), 20))


def test_close_head_sums_pin_their_digit_counts():
    # heads less than 1 apart: both ends are bounded in full, so the interval
    # narrows as the precision grows and the count is pinned
    probe = power(sum_of(exp_of(Fraction(215, 4)), exp_of(Fraction(382, 7))), 4)
    ends = (Fraction(215, 4), Fraction(382, 7))
    with mp.workdps(80):
        truth = 4 * mp.ln(mp.fsum(mp.exp(mp.mpf(q.numerator) / q.denominator) for q in ends))
        assert int(mp.floor(truth / mp.ln(10))) + 1 == 96  # log10 = 95.4335
        widths = []
        for prec in (64, 256, 1024):
            lo, hi = ln_interval(probe, prec)
            assert mp.mpf(lo.numerator) / lo.denominator <= truth
            assert truth <= mp.mpf(hi.numerator) / hi.denominator
            widths.append(hi - lo)
    assert widths[2] < widths[1] < widths[0] < Fraction(1, 2**40)
    assert digit_count(probe) == 96
    # frozen from mpmath at 60 digits: log10 = 10.095 and 11.044
    assert digit_count(sum_of(exp_of(Fraction(45, 2)), exp_of(Fraction(113, 5)))) == 11
    assert digit_count(sum_of(*(exp_of(23 - Fraction(k, 100)) for k in range(12)))) == 12


def test_digit_count_symbolic_power_matches_oracle():
    mp.mp.dps = 50
    e = 2**24
    want = int(mp.floor(e * mp.log(2, 10))) + 1
    got = digit_count(Power(Exact(2), e))
    assert abs(got - want) <= 1
    assert got == 5050446  # frozen from the oracle above


def test_random_trees_against_integer_arithmetic():
    rng = random.Random(99)
    for _ in range(120):
        ints = [rng.randrange(0, 10**4) for _ in range(4)]
        mags = [exact(v) for v in ints]
        shape = rng.randrange(3)
        if shape == 0:
            m, v = sum_of(*mags), sum(ints)
        elif shape == 1:
            m, v = prod_of(*mags), ints[0] * ints[1] * ints[2] * ints[3]
        else:
            m, v = max_of(*mags), max(ints)
        assert force_exact(m) == v
        assert digit_count(m) == int_digits(v)
        other = rng.randrange(0, 10**16)
        want = (
            Comparison.LESS
            if v < other
            else Comparison.GREATER
            if v > other
            else Comparison.EQUAL
        )
        assert compare(m, exact(other)) is want
